package graph

import (
	"bytes"
	"encoding/json"
	"math"
)

// EdgeList is an edge list as the JSON API and the job journal carry it:
// [[a,b],[c,d],...]. It decodes its common form without reflection and
// yields exactly what encoding/json yields for a [][2]int, refusing
// exactly what it refuses. It has no MarshalJSON: encoding/json re-scans
// whatever a Marshaler returns, which costs more than encoding the pairs
// by reflection.
type EdgeList [][2]int

// UnmarshalJSON implements json.Unmarshaler. A list of integer pairs,
// with any JSON whitespace, is parsed by hand. Anything else (null, a
// pair of another length, a fraction, an integer out of int's range,
// malformed JSON) goes to encoding/json, which decodes or refuses it.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	if out, ok := parseEdges(data); ok {
		*l = out
		return nil
	}
	return json.Unmarshal(data, (*[][2]int)(l))
}

// parseEdges decodes the common form of an edge list and reports whether
// data was in it.
func parseEdges(data []byte) (EdgeList, bool) {
	p := edgeParser{data: data}
	if !p.next('[') {
		return nil, false
	}
	// In this form every pair opens a bracket and takes at least six
	// bytes with its comma.
	out := make(EdgeList, 0, min(bytes.Count(data, []byte{'['})-1, len(data)/6+1))
	if !p.next(']') {
		for {
			var e [2]int
			ok := p.next('[')
			e[0], ok = p.integer(ok)
			ok = ok && p.next(',')
			e[1], ok = p.integer(ok)
			if !ok || !p.next(']') {
				return nil, false
			}
			out = append(out, e)
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return nil, false
			}
		}
	}
	p.space()
	return out, p.i == len(p.data)
}

// edgeParser walks one document; i is the offset of the next byte.
type edgeParser struct {
	data []byte
	i    int
}

func (p *edgeParser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c, after any whitespace, if it comes next.
func (p *edgeParser) next(c byte) bool {
	p.space()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *edgeParser) digit() bool {
	return p.i < len(p.data) && p.data[p.i] >= '0' && p.data[p.i] <= '9'
}

// integer consumes, after any whitespace, a JSON integer in int's range
// (-?(0|[1-9][0-9]*), not followed by a fraction or an exponent). ok
// passes the parse so far through, so a pair reads as one chain.
func (p *edgeParser) integer(ok bool) (int, bool) {
	if !ok {
		return 0, false
	}
	p.space()
	neg := p.i < len(p.data) && p.data[p.i] == '-'
	if neg {
		p.i++
	}
	if !p.digit() {
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var mag uint64
	if p.data[p.i] == '0' {
		p.i++
	} else {
		for ; p.digit(); p.i++ {
			d := uint64(p.data[p.i] - '0')
			if mag > (limit-d)/10 {
				return 0, false
			}
			mag = mag*10 + d
		}
	}
	if p.i < len(p.data) {
		if c := p.data[p.i]; c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	if neg {
		return int(-mag), true
	}
	return int(mag), true
}

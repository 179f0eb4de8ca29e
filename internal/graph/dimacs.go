package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseDimacs reads a graph in DIMACS .col format:
//
//	c comment
//	p edge <vertices> <edges>
//	e <a> <b>          (1-indexed endpoints)
//
// Duplicate edge lines (including reversed duplicates, which several DIMACS
// files contain) are tolerated and collapsed, so M() reports the number of
// unique undirected edges, which may be lower than the header count. The
// edges are collected and the graph built once, by FromEdges.
func ParseDimacs(name string, r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	n := -1
	var edges [][2]int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch line[0] {
		case 'c':
			continue
		case 'p':
			if n >= 0 {
				return nil, fmt.Errorf("dimacs line %d: duplicate problem line", lineNo)
			}
			var kind string
			var m int
			if _, err := fmt.Sscanf(line, "p %s %d %d", &kind, &n, &m); err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad problem line %q: %v", lineNo, line, err)
			}
			if kind != "edge" && kind != "col" {
				return nil, fmt.Errorf("dimacs line %d: unsupported format %q", lineNo, kind)
			}
			if n < 0 {
				return nil, fmt.Errorf("dimacs line %d: negative vertex count %d", lineNo, n)
			}
		case 'e':
			if n < 0 {
				return nil, fmt.Errorf("dimacs line %d: edge before problem line", lineNo)
			}
			var a, b int
			if _, err := fmt.Sscanf(line, "e %d %d", &a, &b); err != nil {
				return nil, fmt.Errorf("dimacs line %d: bad edge line %q: %v", lineNo, line, err)
			}
			if a < 1 || b < 1 || a > n || b > n {
				return nil, fmt.Errorf("dimacs line %d: endpoint out of range in %q", lineNo, line)
			}
			edges = append(edges, [2]int{a - 1, b - 1})
		default:
			return nil, fmt.Errorf("dimacs line %d: unrecognized line %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("dimacs: no problem line found")
	}
	return FromEdges(name, n, edges)
}

// DimacsVertices returns the vertex count a DIMACS document's problem
// line declares (0 if none parses), read without allocating per vertex as
// ParseDimacs does.
func DimacsVertices(doc string) int {
	for doc != "" {
		var line, kind string
		var n int
		line, doc, _ = strings.Cut(doc, "\n")
		if line = strings.TrimSpace(line); strings.HasPrefix(line, "p") {
			fmt.Sscanf(line, "p %s %d", &kind, &n)
			return n
		}
	}
	return 0
}

// WriteDimacs writes the graph in DIMACS .col format with each undirected
// edge listed once.
func WriteDimacs(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "c %s generated by repro (|V|=%d |E|=%d", g.Name(), g.N(), g.M())
	if g.Chi > 0 {
		fmt.Fprintf(bw, " chi=%d", g.Chi)
	}
	fmt.Fprintf(bw, ")\n")
	fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M())
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e[0]+1, e[1]+1)
	}
	return bw.Flush()
}

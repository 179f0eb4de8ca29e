// Package solverutil holds the data structures under internal/pbsolver's
// CDCL core and the hooks the layers above it share: the VSIDS order heap,
// the flat clause arena with its watcher lists, LBD counting, the Luby
// restart sequence, progress snapshots and clause-sharing types. Each
// piece is tested on its own here, and the arena keeps the hot propagation
// path free of per-clause pointer chasing.
package solverutil

import "slices"

// VarHeap is an indexed binary max-heap over variable activities, the VSIDS
// decision order (Moskewicz et al. 2001). Variables are 1..n; position 0 of
// the index array is unused.
type VarHeap struct {
	heap []int // heap of variables
	pos  []int // pos[v] = index of v in heap, -1 if absent
}

// Ensure grows the heap's index to cover variables 1..n, pushing new ones.
func (h *VarHeap) Ensure(n int, act []float64) {
	if d := n + 1 - len(h.pos); d > 0 {
		h.pos = slices.Grow(h.pos, d)
		h.heap = slices.Grow(h.heap, d)
	}
	for len(h.pos) <= n {
		v := len(h.pos)
		h.pos = append(h.pos, -1)
		if v >= 1 {
			h.Push(v, act)
		}
	}
}

// Rebuild resets the heap to contain all n variables.
func (h *VarHeap) Rebuild(n int, act []float64) {
	h.heap = h.heap[:0]
	h.pos = make([]int, n+1)
	for v := 1; v <= n; v++ {
		h.pos[v] = -1
	}
	for v := 1; v <= n; v++ {
		h.Push(v, act)
	}
}

// Empty reports whether no variable is queued.
func (h *VarHeap) Empty() bool { return len(h.heap) == 0 }

// Push inserts v unless already present.
func (h *VarHeap) Push(v int, act []float64) {
	if v < len(h.pos) && h.pos[v] != -1 {
		return // already present
	}
	for len(h.pos) <= v {
		h.pos = append(h.pos, -1)
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap)-1, act)
}

// Pop removes and returns the variable with maximum activity (0 when empty).
func (h *VarHeap) Pop(act []float64) int {
	if len(h.heap) == 0 {
		return 0
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	h.pos[v] = -1
	if len(h.heap) > 0 {
		h.down(0, act)
	}
	return v
}

// Update restores heap order after v's activity increased.
func (h *VarHeap) Update(v int, act []float64) {
	if v >= len(h.pos) || h.pos[v] == -1 {
		return
	}
	h.up(h.pos[v], act)
}

func (h *VarHeap) up(i int, act []float64) {
	v := h.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if act[h.heap[parent]] >= act[v] {
			break
		}
		h.heap[i] = h.heap[parent]
		h.pos[h.heap[i]] = i
		i = parent
	}
	h.heap[i] = v
	h.pos[v] = i
}

func (h *VarHeap) down(i int, act []float64) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		best := left
		if right := left + 1; right < n && act[h.heap[right]] > act[h.heap[left]] {
			best = right
		}
		if act[v] >= act[h.heap[best]] {
			break
		}
		h.heap[i] = h.heap[best]
		h.pos[h.heap[i]] = i
		i = best
	}
	h.heap[i] = v
	h.pos[v] = i
}

// Luby returns the i-th element (1-based) of the Luby restart sequence.
func Luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return Luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

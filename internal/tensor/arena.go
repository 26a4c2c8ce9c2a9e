package tensor

// Arena is a bump allocator for scratch tensors. A worker owns one Arena,
// calls Reset at the start of each task, and carves every intermediate of
// the gather → step → scatter cycle out of it, so the steady-state
// execution loop performs zero heap allocations: the slab and the tensor
// headers are both reused across cycles.
//
// Ownership rules (see DESIGN.md §9):
//
//   - An Arena is single-goroutine: exactly one worker may use it, and only
//     between its own Reset calls.
//   - Get returns scratch with UNSPECIFIED contents. Every *Into op that
//     targets arena scratch fully overwrites its destination
//     (MatMulInto/MatMulAddBiasInto initialize before accumulating), so no
//     caller may rely on zero-fill.
//   - Tensors returned by Get are invalid after the next Reset: the slab and
//     the headers are recycled. Anything that must outlive the cycle —
//     per-request output rows, results handed across goroutines — must NOT
//     come from the arena.
type Arena struct {
	slab []float32
	off  int
	// hdrs recycles the *Tensor headers themselves; each keeps a cap-2
	// shape slice that Get rewrites in place.
	hdrs []*Tensor
	nhdr int
	// overflow accumulates the sizes that did not fit the slab this cycle;
	// Reset grows the slab to the high-water total so the next cycle fits.
	overflow int
	// high is the largest element total any cycle has demanded (slab use
	// plus overflow) — the observability high-water mark.
	high int
}

// NewArena returns an arena with an initial slab of the given element
// capacity (may be 0; the slab grows to the high-water mark on Reset).
func NewArena(capacity int) *Arena {
	if capacity < 0 {
		capacity = 0
	}
	return &Arena{slab: make([]float32, capacity)}
}

// Get returns an uninitialized [rows, cols] scratch tensor carved from the
// arena. A nil arena falls back to a fresh zeroed allocation, so code paths
// shared with the allocating helper (rnn.Step) need no branching. If the
// slab is exhausted the tensor gets its own backing slice — correct but
// allocating — and Reset grows the slab so the next cycle stays in-arena.
func (a *Arena) Get(rows, cols int) *Tensor {
	if a == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic("tensor: Arena.Get with negative dimension")
	}
	data := a.f32(rows * cols)
	var t *Tensor
	if a.nhdr < len(a.hdrs) {
		t = a.hdrs[a.nhdr]
	} else {
		t = &Tensor{shape: make([]int, 0, 2)}
		a.hdrs = append(a.hdrs, t)
	}
	a.nhdr++
	t.shape = append(t.shape[:0], rows, cols)
	t.data = data
	return t
}

// f32 carves n float32 elements from the slab (or overflows).
func (a *Arena) f32(n int) []float32 {
	if a.off+n <= len(a.slab) {
		d := a.slab[a.off : a.off+n : a.off+n]
		a.off += n
		return d
	}
	a.overflow += n
	return make([]float32, n)
}

// Reset invalidates every tensor handed out since the previous Reset and
// rewinds the arena. If the last cycle overflowed the slab, the slab is
// regrown to the high-water total so the next cycle allocates nothing.
// A nil arena is a no-op.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if used := a.off + a.overflow; used > a.high {
		a.high = used
	}
	if a.overflow > 0 {
		a.slab = make([]float32, a.off+a.overflow)
		a.overflow = 0
	}
	a.off = 0
	a.nhdr = 0
}

// HighWaterBytes returns the largest byte total any completed cycle has
// demanded of the arena (updated on Reset) — the observability figure.
// A nil arena reports 0.
func (a *Arena) HighWaterBytes() int64 {
	if a == nil {
		return 0
	}
	return 4 * int64(a.high)
}

// Cap returns the current slab capacity in elements (for tests and stats).
func (a *Arena) Cap() int {
	if a == nil {
		return 0
	}
	return len(a.slab)
}

// Package interp executes IL modules and collects the dynamic profiles
// that drive inline expansion. It provides the substrate the paper ran
// on natively: a byte-addressable memory (globals, control stack, heap),
// a call stack with per-frame locals and virtual registers, and a library
// of external functions (the paper's un-inlinable "$$$" callees) backed by
// an in-memory file system.
package interp

import (
	"encoding/binary"
	"fmt"

	"inlinec/internal/ir"
)

// Address-space layout. Segments are disjoint so that stray pointers are
// detected rather than silently corrupting another segment.
const (
	GlobalsBase int64 = 0x0001_0000
	StackBase   int64 = 0x1000_0000
	HeapBase    int64 = 0x4000_0000
	FuncBase    int64 = 0x7000_0000

	// FuncStride spaces function addresses so that off-by-small-offset
	// pointer bugs don't alias another function.
	FuncStride int64 = 16
)

// DefaultStackSize is the control-stack capacity in bytes. Exceeding it is
// the paper's "control stack overflow" hazard.
const DefaultStackSize = 4 << 20

// DefaultHeapSize caps the bump allocator.
const DefaultHeapSize = 64 << 20

// MemError is a memory-access fault.
type MemError struct {
	Addr int64
	Op   string
}

func (e *MemError) Error() string {
	return fmt.Sprintf("memory fault: %s at address %#x", e.Op, e.Addr)
}

// Memory is the flat data memory of a running program.
type Memory struct {
	globals segment
	stack   segment
	heap    segment
	heapTop int64 // bump pointer (offset into heap)

	globalAddr map[string]int64

	// initGlobals snapshots the globals segment after relocation so Reset
	// can restore it without re-running layout.
	initGlobals []byte
}

// segment is one region of the address space, allocated on demand the
// way an OS maps a page only when it is first used. Every offset below
// limit is a valid address; b holds the prefix a run has reached so far,
// and an offset in [len(b), limit) reads as zero until a store reaches
// it. Bytes in b[len(b):cap(b)] are always zero, so growing within the
// capacity is a reslice and Reset clears only what a run reached.
type segment struct {
	b     []byte
	limit int64
}

// minSegment is the first allocation a segment grows to: one page.
const minSegment = 4 << 10

// grow extends the allocated prefix to cover [0,end), end <= s.limit.
// It at least doubles the prefix, so a segment that keeps growing is
// copied O(log size) times.
func (s *segment) grow(end int64) {
	n := int64(len(s.b))
	if end <= n {
		return
	}
	n = min(max(end, 2*n, minSegment), s.limit)
	if n <= int64(cap(s.b)) {
		s.b = s.b[:n]
		return
	}
	b := make([]byte, n)
	copy(b, s.b)
	s.b = b
}

// reset zeroes the allocated prefix and empties it, keeping the
// capacity for the next run.
func (s *segment) reset() {
	clear(s.b)
	s.b = s.b[:0]
}

// layoutGlobals computes the load address of every global and the total
// segment size. The layout depends only on the module, so the bytecode
// translator can resolve global addresses before any Memory exists and
// agree exactly with NewMemory.
func layoutGlobals(mod *ir.Module) (map[string]int64, int) {
	addrs := make(map[string]int64, len(mod.Globals))
	off := 0
	for _, g := range mod.Globals {
		a := g.Align
		if a <= 0 {
			a = 1
		}
		off = (off + a - 1) / a * a
		addrs[g.Name] = GlobalsBase + int64(off)
		off += g.Size
	}
	return addrs, off
}

// NewMemory lays out the module's globals (applying relocations) and
// returns initialized memory. The stack and heap start empty and grow on
// demand up to stackSize and heapSize bytes. funcAddr resolves function
// names for function-pointer relocations.
func NewMemory(mod *ir.Module, stackSize, heapSize int, funcAddr func(string) (int64, bool)) (*Memory, error) {
	for name := range mod.ExternGlobals {
		if mod.Global(name) == nil {
			return nil, fmt.Errorf("undefined symbol %q: extern variable never defined (link the defining unit)", name)
		}
	}
	addrs, size := layoutGlobals(mod)
	m := &Memory{
		globals:    segment{b: make([]byte, size), limit: int64(size)},
		stack:      segment{limit: int64(stackSize)},
		heap:       segment{limit: int64(heapSize)},
		globalAddr: addrs,
	}
	globals := m.globals.b
	for _, g := range mod.Globals {
		base := m.globalAddr[g.Name] - GlobalsBase
		copy(globals[base:], g.Init)
		for _, r := range g.Relocs {
			var target int64
			if r.IsFunc {
				fa, ok := funcAddr(r.Sym)
				if !ok {
					return nil, fmt.Errorf("reloc in %s: unknown function %q", g.Name, r.Sym)
				}
				target = fa
			} else {
				ga, ok := m.globalAddr[r.Sym]
				if !ok {
					return nil, fmt.Errorf("reloc in %s: unknown global %q", g.Name, r.Sym)
				}
				target = ga
			}
			binary.LittleEndian.PutUint64(globals[base+int64(r.Offset):], uint64(target+r.Addend))
		}
	}
	m.initGlobals = append([]byte(nil), globals...)
	return m, nil
}

// Reset restores memory to its freshly loaded state: globals come back
// from the post-relocation snapshot, and the stack and heap drop back to
// empty, zeroing only the prefix the run reached. A Reset memory is
// indistinguishable from a new one, which is what lets a Machine be
// reused across profiling runs.
func (m *Memory) Reset() {
	copy(m.globals.b, m.initGlobals)
	m.stack.reset()
	m.heap.reset()
	m.heapTop = 0
}

// GlobalAddr returns the load address of a global.
func (m *Memory) GlobalAddr(name string) (int64, bool) {
	a, ok := m.globalAddr[name]
	return a, ok
}

// seg resolves [addr, addr+n) to the segment holding it and the offset
// of addr within it.
func (m *Memory) seg(addr int64, n int64) (*segment, int64, bool) {
	switch {
	case addr >= GlobalsBase && addr+n <= GlobalsBase+m.globals.limit:
		return &m.globals, addr - GlobalsBase, true
	case addr >= StackBase && addr+n <= StackBase+m.stack.limit:
		return &m.stack, addr - StackBase, true
	case addr >= HeapBase && addr+n <= HeapBase+m.heap.limit:
		return &m.heap, addr - HeapBase, true
	}
	return nil, 0, false
}

// Load reads size bytes (1 or 8) at addr; byte loads zero-extend. Bytes
// past the allocated prefix read as zero and allocate nothing.
func (m *Memory) Load(addr int64, size int) (int64, error) {
	s, off, ok := m.seg(addr, int64(size))
	if !ok {
		return 0, &MemError{Addr: addr, Op: fmt.Sprintf("load%d", size)}
	}
	b := s.b
	if size == 1 {
		if off < int64(len(b)) {
			return int64(b[off]), nil
		}
		return 0, nil
	}
	if off+8 > int64(len(b)) {
		var w [8]byte
		if off < int64(len(b)) {
			copy(w[:], b[off:])
		}
		b, off = w[:], 0
	}
	return int64(binary.LittleEndian.Uint64(b[off:])), nil
}

// Store writes size bytes (1 or 8) at addr.
func (m *Memory) Store(addr int64, size int, v int64) error {
	s, off, ok := m.seg(addr, int64(size))
	if !ok {
		return &MemError{Addr: addr, Op: fmt.Sprintf("store%d", size)}
	}
	s.grow(off + int64(size))
	if size == 1 {
		s.b[off] = byte(v)
		return nil
	}
	binary.LittleEndian.PutUint64(s.b[off:], uint64(v))
	return nil
}

// Bytes returns n bytes starting at addr for direct inspection. Callers
// may write through the returned slice, so the extent is allocated.
func (m *Memory) Bytes(addr, n int64) ([]byte, error) {
	s, off, ok := m.seg(addr, n)
	if !ok {
		return nil, &MemError{Addr: addr, Op: fmt.Sprintf("access %d bytes", n)}
	}
	s.grow(off + n)
	return s.b[off : off+n], nil
}

// cstrBytes returns a read-only view of the NUL-terminated string at
// addr, without the terminator and without copying (capped at 1 MiB).
// The view aliases program memory, so it is only valid until the next
// store — callers must finish reading before the program runs again.
func (m *Memory) cstrBytes(addr int64) ([]byte, error) {
	const maxLen = 1 << 20
	s, off, ok := m.seg(addr, 1)
	if !ok {
		return nil, &MemError{Addr: addr, Op: "load1"}
	}
	// The string can extend at most to the end of its segment; scanning
	// the view byte-for-byte matches what repeated 1-byte loads would see.
	limit := min(s.limit-off, maxLen)
	var view []byte
	if off < int64(len(s.b)) {
		view = s.b[off:]
	}
	for i := int64(0); i < int64(len(view)) && i < limit; i++ {
		if view[i] == 0 {
			return view[:i], nil
		}
	}
	if int64(len(view)) < limit {
		// The byte after the allocated prefix reads as zero: the NUL.
		return view, nil
	}
	if limit == maxLen {
		return nil, fmt.Errorf("unterminated string at %#x", addr)
	}
	// Ran off the end of the segment before a NUL: the byte-at-a-time
	// reader would fault loading the first out-of-segment byte.
	return nil, &MemError{Addr: addr + limit, Op: "load1"}
}

// CString reads a NUL-terminated string at addr (capped at 1 MiB).
func (m *Memory) CString(addr int64) (string, error) {
	b, err := m.cstrBytes(addr)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// WriteBytes copies data into memory at addr.
func (m *Memory) WriteBytes(addr int64, data []byte) error {
	s, off, ok := m.seg(addr, int64(len(data)))
	if !ok {
		return &MemError{Addr: addr, Op: fmt.Sprintf("write %d bytes", len(data))}
	}
	s.grow(off + int64(len(data)))
	copy(s.b[off:], data)
	return nil
}

// Alloc carves n bytes from the heap (16-byte aligned) and allocates
// them; it returns 0 when the heap cannot hold them, matching malloc's
// NULL convention.
func (m *Memory) Alloc(n int64) int64 {
	if n <= 0 {
		n = 1
	}
	top := (m.heapTop + 15) &^ 15
	if n > m.heap.limit-top {
		return 0
	}
	m.heapTop = top + n
	m.heap.grow(m.heapTop)
	return HeapBase + top
}

// StackSize returns the stack capacity in bytes.
func (m *Memory) StackSize() int { return int(m.stack.limit) }

package interp

import (
	"bytes"
	"math"
	"testing"

	"inlinec/internal/ir"
)

func newTestMemory(t *testing.T, stackSize, heapSize int) *Memory {
	t.Helper()
	m, err := NewMemory(&ir.Module{}, stackSize, heapSize, func(string) (int64, bool) { return 0, false })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAllocOverflow: a request larger than the space left returns NULL
// and leaves the bump pointer alone, however large it is; top+n used to
// overflow int64 and hand out a pointer past the heap.
func TestAllocOverflow(t *testing.T) {
	m := newTestMemory(t, 1<<10, 1<<10)
	if a := m.Alloc(8); a != HeapBase {
		t.Fatalf("Alloc(8) = %#x, want %#x", a, HeapBase)
	}
	if a := m.Alloc(math.MaxInt64); a != 0 {
		t.Fatalf("Alloc(MaxInt64) = %#x, want 0", a)
	}
	if a := m.Alloc(8); a != HeapBase+16 {
		t.Fatalf("Alloc(8) after a failed huge request = %#x, want %#x", a, HeapBase+16)
	}
	if a := m.Alloc(1<<10 - 32 + 1); a != 0 {
		t.Fatalf("Alloc one byte past the limit = %#x, want 0", a)
	}
	if a := m.Alloc(1<<10 - 32); a != HeapBase+32 {
		t.Fatalf("Alloc of exactly the rest = %#x, want %#x", a, HeapBase+32)
	}
	if m.heapTop != 1<<10 || len(m.heap.b) != 1<<10 {
		t.Fatalf("heapTop %d, allocated %d; want both 1024", m.heapTop, len(m.heap.b))
	}
}

// TestMemoryDemandGrowth: reads past the allocated prefix see zeros and
// allocate nothing; stores grow the prefix by at least a page; Reset
// empties both segments, keeps their capacity and leaves it all zero.
func TestMemoryDemandGrowth(t *testing.T) {
	const heapSize = 1 << 20
	m := newTestMemory(t, 64<<10, heapSize)
	end := HeapBase + heapSize
	if v, err := m.Load(end-8, 8); v != 0 || err != nil {
		t.Fatalf("load at the heap end = %d, %v; want 0", v, err)
	}
	if len(m.heap.b) != 0 {
		t.Fatalf("a load allocated %d heap bytes", len(m.heap.b))
	}
	if err := m.Store(HeapBase+100, 1, 7); err != nil {
		t.Fatal(err)
	}
	if len(m.heap.b) != minSegment {
		t.Fatalf("first store allocated %d bytes, want %d", len(m.heap.b), minSegment)
	}
	// An 8-byte load straddling the prefix reads the allocated bytes and
	// zeros for the rest.
	if err := m.Store(HeapBase+minSegment-2, 1, 0xab); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(HeapBase+minSegment-2, 8); v != 0xab {
		t.Fatalf("straddling load = %#x, want 0xab", v)
	}
	if err := m.Store(end-8, 8, -1); err != nil {
		t.Fatal(err)
	}
	if len(m.heap.b) != heapSize {
		t.Fatalf("store at the heap end allocated %d bytes, want %d", len(m.heap.b), heapSize)
	}
	if err := m.Store(end-7, 8, 1); err == nil || err.Error() != "memory fault: store8 at address 0x400ffff9" {
		t.Fatalf("store past the heap end: %v", err)
	}
	if _, err := m.Bytes(StackBase+600, 10); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	if len(m.heap.b) != 0 || len(m.stack.b) != 0 || m.heapTop != 0 {
		t.Fatalf("after Reset: heap %d, stack %d, heapTop %d; want 0", len(m.heap.b), len(m.stack.b), m.heapTop)
	}
	if cap(m.heap.b) != heapSize || cap(m.stack.b) != minSegment {
		t.Fatalf("Reset dropped capacity: heap %d, stack %d", cap(m.heap.b), cap(m.stack.b))
	}
	for _, s := range []segment{m.heap, m.stack} {
		if b := s.b[:cap(s.b)]; !bytes.Equal(b, make([]byte, len(b))) {
			t.Fatal("Reset left non-zero bytes behind the prefix")
		}
	}
}

// TestStrlenAtAllocatedPrefix: a string whose last byte is the last
// allocated heap byte ends at the implicit NUL just past the prefix, on
// both engines, on fresh and on reused memory.
func TestStrlenAtAllocatedPrefix(t *testing.T) {
	file, err := parserParse(`extern int malloc(int n);
extern int strlen(char *s);
int main() {
	char *p;
	p = (char*)malloc(4096);
	p[4093] = 'a'; p[4094] = 'b'; p[4095] = 'c';
	return strlen(p + 4093);
}`)
	if err != nil {
		t.Fatal(err)
	}
	_, mod := mustLower(t, file)
	for _, engine := range []string{EngineBytecode, EngineSwitch} {
		m, err := NewMachine(mod, NewEnv(), Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			st, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if st.ExitCode != 3 || len(m.mem.heap.b) != 4096 {
				t.Fatalf("%s run %d: strlen %d with %d heap bytes allocated, want 3 with 4096",
					engine, run, st.ExitCode, len(m.mem.heap.b))
			}
		}
	}
}

// TestResetMatchesFresh: after a run that grew the stack to its limit
// and the heap to its end, Reset leaves memory byte-identical to a
// freshly loaded one.
func TestResetMatchesFresh(t *testing.T) {
	file, err := parserParse(`int g[4] = {1, 2, 3, 4};
int f(int n) { int pad[200]; pad[0] = n; g[n % 4] = n; return f(n + 1) + pad[0]; }
int main() { int *p; p = (int*)0x400ffff8; *p = 5; return f(0); }`)
	if err != nil {
		t.Fatal(err)
	}
	_, mod := mustLower(t, file)
	for _, engine := range []string{EngineBytecode, EngineSwitch} {
		opts := Options{Engine: engine, StackSize: boundaryStack, HeapSize: boundaryHeap}
		m, err := NewMachine(mod, NewEnv(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil || !containsStr(err.Error(), "control stack overflow") {
			t.Fatalf("%s: want a stack overflow, got %v", engine, err)
		}
		if len(m.mem.heap.b) != boundaryHeap || len(m.mem.stack.b) < boundaryStack-2048 {
			t.Fatalf("%s: run grew heap to %d and stack to %d", engine, len(m.mem.heap.b), len(m.mem.stack.b))
		}
		m.mem.Reset()
		fresh, err := NewMemory(mod, opts.StackSize, opts.HeapSize, m.FuncAddr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.mem.globals.b, fresh.globals.b) {
			t.Fatalf("%s: globals not restored", engine)
		}
		for _, addr := range []int64{StackBase, StackBase + 5000, HeapBase, HeapBase + boundaryHeap - 8} {
			got, _ := m.mem.Load(addr, 8)
			want, _ := fresh.Load(addr, 8)
			if got != want {
				t.Fatalf("%s: load %#x = %d after Reset, %d fresh", engine, addr, got, want)
			}
		}
		for _, s := range []segment{m.mem.heap, m.mem.stack} {
			if b := s.b[:cap(s.b)]; len(s.b) != 0 || !bytes.Equal(b, make([]byte, len(b))) {
				t.Fatalf("%s: Reset left %d bytes allocated or non-zero capacity", engine, len(s.b))
			}
		}
		if m.mem.heapTop != fresh.heapTop {
			t.Fatalf("%s: heapTop %d after Reset", engine, m.mem.heapTop)
		}
	}
}

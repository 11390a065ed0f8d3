package interp

import (
	"fmt"
	"testing"
)

// boundaryHeap and boundaryStack size the segments of the boundary
// programs, so a store at the very end of the heap allocates 1 MiB, not
// the 64 MiB default.
const (
	boundaryHeap  = 1 << 20
	boundaryStack = 64 << 10
)

// heapEnd is the first address past the boundary programs' heap.
var heapEnd = HeapBase + boundaryHeap

// boundaryProgs pin the segment limits: every address below a limit is
// valid whether or not a run has stored to it, and the first address
// past it faults with the same text as ever.
var boundaryProgs = []struct {
	name, src string
	out, err  string
}{
	{"load-store-heap-end", fmt.Sprintf(`extern int printf(char *f, ...);
int main() {
	int *p;
	p = (int*)%d;
	printf("%%d\n", *p);
	*p = 77;
	printf("%%d\n", *p);
	return 0;
}`, heapEnd-8), "0\n77\n", ""},
	{"load8-past-heap-end", fmt.Sprintf(`int main() { int *p; p = (int*)%d; return *p; }`, heapEnd-7),
		"", fmt.Sprintf("runtime error in main at t.c:1:51: memory fault: load8 at address %#x", heapEnd-7)},
	{"store8-past-heap-end", fmt.Sprintf(`int main() { int *p; p = (int*)%d; *p = 1; return 0; }`, heapEnd-7),
		"", fmt.Sprintf("runtime error in main at t.c:1:44: memory fault: store8 at address %#x", heapEnd-7)},
	{"load1-past-heap-end", fmt.Sprintf(`int main() { char *p; p = (char*)%d; return *p; }`, heapEnd),
		"", fmt.Sprintf("runtime error in main at t.c:1:53: memory fault: load1 at address %#x", heapEnd)},
	{"store1-heap-end", fmt.Sprintf(`int main() { char *p; p = (char*)%d; *p = 9; return *p; }`, heapEnd-1), "", ""},
	{"strlen-runs-off-heap", fmt.Sprintf(`extern int strlen(char *s);
int main() { char *p; p = (char*)%d; *p = 'a'; return strlen(p); }`, heapEnd-1),
		"", fmt.Sprintf("runtime error in main at t.c:2:63: memory fault: load1 at address %#x", heapEnd)},
	{"strlen-never-stored", fmt.Sprintf(`extern int strlen(char *s);
int main() { return strlen((char*)%d); }`, heapEnd-100), "", ""},
	{"stack-overflow", `int f(int n) { int pad[200]; pad[0] = n; return f(n + 1) + pad[0]; }
int main() { return f(0); }`,
		"", "runtime error in f at t.c:1:49: control stack overflow entering f (frame 1608 bytes, used 64640 of 65536)"},
	{"alloc-overflow", `extern int malloc(int n);
extern int calloc(int n, int size);
extern int printf(char *f, ...);
int main() {
	int a; int b; int c;
	a = malloc(8);
	b = malloc(0x7fffffffffffffff);
	c = malloc(8);
	printf("%d %d %d\n", a - 0x40000000, b, c - 0x40000000);
	printf("%d %d\n", calloc(0x4000000000000000, 4), calloc(-1, 0x8000000000000000));
	printf("%d\n", calloc(2, 8) - 0x40000000);
	printf("%d\n", malloc(0x100000 - 48) - 0x40000000);
	printf("%d\n", malloc(1));
	return 0;
}`, "0 0 16\n0 0\n32\n48\n0\n", ""},
}

// TestBoundarySemantics runs each boundary program on both engines,
// twice on one Machine: the first run on fresh memory, the second on
// memory the first run grew and Reset handed back. All four runs must
// match the expected output and fault text exactly.
func TestBoundarySemantics(t *testing.T) {
	for _, p := range boundaryProgs {
		t.Run(p.name, func(t *testing.T) {
			file, err := parserParse(p.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, mod := mustLower(t, file)
			var first string
			for _, engine := range []string{EngineBytecode, EngineSwitch} {
				m, err := NewMachine(mod, NewEnv(), Options{Engine: engine, HeapSize: boundaryHeap, StackSize: boundaryStack})
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					m.SetEnv(NewEnv())
					st, err := m.Run()
					errText := ""
					if err != nil {
						errText = err.Error()
					}
					if got := m.Env.Stdout.String(); got != p.out || errText != p.err {
						t.Fatalf("%s run %d:\nstdout %q, want %q\nerror  %q\nwant   %q", engine, run, got, p.out, errText, p.err)
					}
					got := fmt.Sprintf("%+v", *st)
					if first == "" {
						first = got
					} else if got != first {
						t.Fatalf("%s run %d stats %s, want %s", engine, run, got, first)
					}
				}
			}
		})
	}
}

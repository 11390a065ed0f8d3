package fleet

// In-process fleet tests: real Nodes behind httptest servers, a real
// Router, and the chaos network injector between them. The headline
// property is read identity — a routed merged read must be
// byte-identical to a single node holding all the data, at any shard
// count, replication factor, or ingest order — plus the quorum status
// protocol and anti-entropy convergence.

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"inlinec/internal/chaos"
	"inlinec/internal/profdb"
)

// testRec builds a synthetic but fully-populated record, distinct per
// (fp, gen, salt) so winner comparisons have real content to bite on.
func testRec(fp string, gen int, runs int, salt int64) *profdb.Record {
	r := profdb.NewRecord(fp, gen)
	r.Runs = runs
	r.IL = 1000 + salt
	r.Control = 400 + salt
	r.Calls = 60 + salt
	r.Returns = 60 + salt
	r.MaxStack = 5
	r.Funcs = map[string]int64{"main": 7 + salt, "work": 21 + salt, "leaf": 3}
	r.Sites = map[profdb.SiteKey]int64{
		{Caller: "main", Callee: "work", Ordinal: 0, PosHash: 0x11}: 21 + salt,
		{Caller: "work", Callee: "leaf", Ordinal: 1, PosHash: 0x22}: 3,
	}
	return r
}

// testFleet is N in-memory nodes + a router, wired through a chaos
// Network so tests can partition and "restart" nodes.
type testFleet struct {
	t     *testing.T
	names []string // logical peer URLs ("http://node0", ...)
	nodes map[string]*Node
	srvs  map[string]*httptest.Server
	net   *chaos.Network
	rt    *Router
	rtSrv *httptest.Server
}

func newTestFleet(t *testing.T, n, replicas int) *testFleet {
	t.Helper()
	f := &testFleet{
		t:     t,
		nodes: make(map[string]*Node),
		srvs:  make(map[string]*httptest.Server),
		net:   chaos.NewNetwork(nil),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("http://node%d", i)
		f.names = append(f.names, name)
		node := NewNode(profdb.NewDB(""), 0)
		node.Start()
		srv := httptest.NewServer(node.Handler())
		f.nodes[name] = node
		f.srvs[name] = srv
		f.net.SetAddr(strings.TrimPrefix(name, "http://"), srv.URL)
	}
	rt, err := NewRouter(f.names, replicas, RouterOptions{
		Transport: f.net,
		Timeout:   5 * time.Second,
		Attempts:  2,
		Backoff:   -1, // literally zero: injected dial failures retry instantly
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	f.rtSrv = httptest.NewServer(rt.Handler())
	return f
}

func (f *testFleet) close() {
	f.rtSrv.Close()
	for _, name := range f.names {
		f.srvs[name].Close()
		f.nodes[name].Stop()
	}
}

// logical strips the scheme: chaos.Network keys hosts, peers are URLs.
func logical(peer string) string { return strings.TrimPrefix(peer, "http://") }

// postRouter sends one snapshot through the router, returning status
// code and body.
func (f *testFleet) postRouter(program string, rec *profdb.Record) (int, string) {
	f.t.Helper()
	var buf bytes.Buffer
	if _, err := profdb.WriteSnapshot(&buf, program, rec); err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.Post(f.rtSrv.URL+"/ingest", "text/plain", &buf)
	if err != nil {
		f.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestMergedReadByteIdentity is the acceptance property: the routed
// merged read is byte-identical at N=1/3/5, R=1/2, regardless of
// ingest order.
func TestMergedReadByteIdentity(t *testing.T) {
	// The workload: 6 fingerprints x 3 generations, several copies each.
	type ingest struct {
		rec *profdb.Record
	}
	var work []ingest
	var fps []string
	for i := 0; i < 6; i++ {
		fp := fmt.Sprintf("%016x", uint64(0xabc123)+uint64(i)*0x1111)
		fps = append(fps, fp)
		for gen := 0; gen < 3; gen++ {
			for copyN := 0; copyN <= i%3; copyN++ {
				work = append(work, ingest{rec: testRec(fp, gen, 1+copyN, int64(i*10+gen))})
			}
		}
	}

	// Reference: one in-memory node holding everything.
	ref := NewNode(profdb.NewDB(""), 0)
	ref.Start()
	refSrv := httptest.NewServer(ref.Handler())
	defer refSrv.Close()
	defer ref.Stop()
	for _, in := range work {
		var buf bytes.Buffer
		profdb.WriteSnapshot(&buf, "ident.c", in.rec)
		resp, err := http.Post(refSrv.URL+"/ingest", "text/plain", &buf)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference ingest: status %d", resp.StatusCode)
		}
	}
	want := make(map[string][]byte)
	for _, fp := range fps {
		code, body := httpGet(t, refSrv.URL+"/profile?fingerprint="+fp)
		if code != http.StatusOK {
			t.Fatalf("reference read %s: status %d: %s", fp, code, body)
		}
		want[fp] = body
	}

	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 3, 5} {
		for _, r := range []int{1, 2} {
			for order := 0; order < 2; order++ {
				name := fmt.Sprintf("N%d_R%d_order%d", n, r, order)
				t.Run(name, func(t *testing.T) {
					f := newTestFleet(t, n, r)
					defer f.close()
					seq := append([]ingest(nil), work...)
					if order == 1 {
						rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
					}
					for _, in := range seq {
						if code, body := f.postRouter("ident.c", in.rec); code != http.StatusOK {
							t.Fatalf("router ingest: status %d: %s", code, body)
						}
					}
					for _, fp := range fps {
						code, got := httpGet(t, f.rtSrv.URL+"/profile?fingerprint="+fp)
						if code != http.StatusOK {
							t.Fatalf("router read %s: status %d: %s", fp, code, got)
						}
						if !bytes.Equal(got, want[fp]) {
							t.Errorf("%s: routed read differs from single-node read:\n--- fleet ---\n%s--- single ---\n%s",
								fp, got, want[fp])
						}
					}
				})
			}
		}
	}
}

// TestQuorumStatusProtocol pins the write-side contract: 200 only when
// every replica committed; 503 (safe retry) only when provably nothing
// committed; 502 (do not retry) on partial commit.
func TestQuorumStatusProtocol(t *testing.T) {
	f := newTestFleet(t, 3, 2)
	defer f.close()
	fp := fmt.Sprintf("%016x", uint64(0xfeed0001))
	owners := f.rt.Ring().Owners(fp)
	if len(owners) != 2 {
		t.Fatalf("expected 2 owners, got %v", owners)
	}

	// All up: acked.
	if code, body := f.postRouter("q.c", testRec(fp, 0, 3, 1)); code != http.StatusOK {
		t.Fatalf("healthy ingest: status %d: %s", code, body)
	}

	// Both owners cut: nothing commits, provably — 503.
	f.net.Partition(logical(owners[0]), logical(owners[1]))
	if code, body := f.postRouter("q.c", testRec(fp, 0, 5, 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("full partition: status %d, want 503: %s", code, body)
	}

	// One owner cut: the other commits — partial, 502.
	f.net.Heal()
	f.net.Partition(logical(owners[1]))
	code, body := f.postRouter("q.c", testRec(fp, 0, 7, 1))
	if code != http.StatusBadGateway {
		t.Fatalf("partial partition: status %d, want 502: %s", code, body)
	}

	// Healed read sees the acked 3 runs plus the partially-committed 7:
	// the reader combines per-key winners, and the surviving owner's
	// copy carries both.
	f.net.Heal()
	code, got := httpGet(t, f.rtSrv.URL+"/profile?fingerprint="+fp)
	if code != http.StatusOK {
		t.Fatalf("healed read: status %d: %s", code, got)
	}
	_, rec, err := profdb.ReadSnapshot(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Runs != 3+7 {
		t.Errorf("healed read has %d runs, want 10 (3 acked + 7 partial)", rec.Runs)
	}

	// The client-side policy: a router 502 must not be retried, a router
	// 503 must be classified not-committed.
	if profdb.NotCommitted(&profdb.HTTPError{StatusCode: http.StatusBadGateway}) {
		t.Error("502 classified as not-committed")
	}
	if !profdb.NotCommitted(&profdb.HTTPError{StatusCode: http.StatusServiceUnavailable}) {
		t.Error("503 not classified as not-committed")
	}
}

// TestAntiEntropyConvergence: partial commits leave replicas diverged;
// sweeps must push every winner back until the fleet is byte-identical
// to the reference, and converged sweeps must be stable (push nothing).
func TestAntiEntropyConvergence(t *testing.T) {
	f := newTestFleet(t, 3, 2)
	defer f.close()

	refDB := profdb.NewDB("ae.c")
	var fps []string
	for i := 0; i < 5; i++ {
		fp := fmt.Sprintf("%016x", uint64(0xae0000)+uint64(i)*0x777)
		fps = append(fps, fp)
		owners := f.rt.Ring().Owners(fp)
		// Three clean ingests, then two that land only on owners[0]
		// (owners[1] partitioned away): replicas now diverge.
		for k := 0; k < 3; k++ {
			rec := testRec(fp, k%2, 2, int64(i))
			if code, body := f.postRouter("ae.c", rec); code != http.StatusOK {
				t.Fatalf("clean ingest: status %d: %s", code, body)
			}
			refDB.Ingest(rec)
		}
		f.net.Partition(logical(owners[1]))
		for k := 0; k < 2; k++ {
			rec := testRec(fp, k%2, 3, int64(i))
			if code, _ := f.postRouter("ae.c", rec); code != http.StatusBadGateway {
				t.Fatalf("expected partial 502, got %d", code)
			}
			refDB.Ingest(rec) // committed on owners[0]; counts in the fleet view
		}
		f.net.Heal()
	}

	// Sweep until converged (bounded).
	var last *SweepResult
	for i := 0; i < 6; i++ {
		res, err := f.rt.RepairSweep()
		if err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		last = res
		if res.Converged {
			break
		}
	}
	if last == nil || !last.Converged {
		t.Fatalf("fleet did not converge: %+v", last)
	}

	// Every owner now holds the winner copy, byte-identically.
	for _, fp := range fps {
		for gen := 0; gen < 2; gen++ {
			key := profdb.RecordKey{Fingerprint: fp, Gen: gen}
			want := refDB.Records[key]
			if want == nil {
				continue
			}
			for _, owner := range f.rt.Ring().Owners(fp) {
				node := f.nodes[owner]
				got := node.DB().Records[key]
				if got == nil {
					t.Fatalf("%s missing %v after convergence", owner, key)
				}
				if !bytes.Equal(recordBytes(got), recordBytes(want)) {
					t.Errorf("%s diverges on %v after convergence", owner, key)
				}
			}
		}
	}

	// A converged fleet's merged read equals the reference database's.
	for _, fp := range fps {
		code, got := httpGet(t, f.rtSrv.URL+"/profile?fingerprint="+fp)
		if code != http.StatusOK {
			t.Fatalf("read %s: status %d", fp, code)
		}
		merged, stats := refDB.Merge(fp, profdb.DefaultMergeParams())
		if stats.Records == 0 {
			t.Fatalf("reference lost %s", fp)
		}
		var want bytes.Buffer
		profdb.WriteSnapshot(&want, "ae.c", merged)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: converged fleet read differs from reference", fp)
		}
	}

	// Stability: an immediately repeated sweep pushes nothing.
	res, err := f.rt.RepairSweep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Pushed != 0 || !res.Converged {
		t.Errorf("repeat sweep not stable: %+v", res)
	}
}

// TestRouterCoverage: reads require every shard reachable; /healthz
// reports membership.
func TestRouterCoverage(t *testing.T) {
	f := newTestFleet(t, 3, 1)
	defer f.close()
	fp := fmt.Sprintf("%016x", uint64(0xc0ffee))
	if code, body := f.postRouter("cov.c", testRec(fp, 0, 1, 0)); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	if code, _ := httpGet(t, f.rtSrv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthy fleet /healthz: %d", code)
	}
	// R=1: any node down breaks coverage — reads and healthz go 503.
	f.net.Partition(logical(f.names[1]))
	if code, _ := httpGet(t, f.rtSrv.URL+"/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("partitioned fleet /healthz: %d, want 503", code)
	}
	code, body := httpGet(t, f.rtSrv.URL+"/profile?fingerprint="+fp)
	if code != http.StatusServiceUnavailable {
		t.Errorf("uncovered read: %d, want 503: %s", code, body)
	}
	f.net.Heal()
	if code, _ := httpGet(t, f.rtSrv.URL+"/profile?fingerprint="+fp); code != http.StatusOK {
		t.Errorf("healed read: %d, want 200", code)
	}
}

// TestNodeRepairAdoptIfBetter pins the node-side adoption rule:
// strictly-better copies replace, equal or worse pushes are ignored.
func TestNodeRepairAdoptIfBetter(t *testing.T) {
	node := NewNode(profdb.NewDB("n.c"), 0)
	node.Start()
	defer node.Stop()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	client := profdb.NewClient(srv.URL)
	client.Attempts = 1

	if _, err := client.PostSnapshot("n.c", testRec("aa01", 0, 2, 5)); err != nil {
		t.Fatal(err)
	}

	// A better copy (more runs) is adopted.
	push := profdb.NewDB("n.c")
	better := testRec("aa01", 0, 9, 5)
	push.Records[profdb.RecordKey{Fingerprint: "aa01", Gen: 0}] = better
	adopted, err := client.PostRepair(push)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 1 {
		t.Fatalf("adopted = %d, want 1", adopted)
	}
	db, err := client.FetchDB()
	if err != nil {
		t.Fatal(err)
	}
	got := db.Records[profdb.RecordKey{Fingerprint: "aa01", Gen: 0}]
	if got == nil || got.Runs != 9 {
		t.Fatalf("node did not adopt the better copy: %+v", got)
	}

	// Re-pushing the same copy is a no-op (idempotent)...
	adopted, err = client.PostRepair(push)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		t.Errorf("re-push adopted %d, want 0", adopted)
	}
	// ...and a worse copy never regresses the node.
	worse := profdb.NewDB("n.c")
	worse.Records[profdb.RecordKey{Fingerprint: "aa01", Gen: 0}] = testRec("aa01", 0, 1, 5)
	adopted, err = client.PostRepair(worse)
	if err != nil {
		t.Fatal(err)
	}
	if adopted != 0 {
		t.Errorf("worse push adopted %d, want 0", adopted)
	}
}

// TestNodeIngestRejectsNegativeCounts: /ingest is outside input, and a
// negative count merged into the store would subtract weight from
// another client's arcs. Such a payload gets 400 and leaves the store
// byte-identical.
func TestNodeIngestRejectsNegativeCounts(t *testing.T) {
	node := NewNode(profdb.NewDB("n.c"), 0)
	node.Start()
	defer node.Stop()
	srv := httptest.NewServer(node.Handler())
	defer srv.Close()
	client := profdb.NewClient(srv.URL)
	client.Attempts = 1
	if _, err := client.PostSnapshot("n.c", testRec("aa01", 0, 2, 5)); err != nil {
		t.Fatal(err)
	}
	code, before := httpGet(t, srv.URL+"/db")
	if code != http.StatusOK {
		t.Fatalf("GET /db: %d", code)
	}

	var good bytes.Buffer
	if _, err := profdb.WriteSnapshot(&good, "n.c", testRec("aa01", 0, 2, 5)); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		strings.Replace(good.String(), "site main work 0 00000011 26", "site main work 0 00000011 -100", 1),
		strings.Replace(good.String(), "func work 26", "func work -7", 1),
		strings.Replace(good.String(), "calls 65", "calls -3", 1),
	} {
		if bad == good.String() {
			t.Fatalf("test payload did not change:\n%s", bad)
		}
		resp, err := http.Post(srv.URL+"/ingest", "text/plain", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "negative count") {
			t.Errorf("negative-count ingest: %d %q, want 400 naming the negative count", resp.StatusCode, body)
		}
	}
	if _, after := httpGet(t, srv.URL+"/db"); !bytes.Equal(before, after) {
		t.Errorf("rejected ingests changed the store:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// TestWinnerOrderTotal sanity-checks betterRecord: asymmetric, total,
// and equality-stable.
func TestWinnerOrderTotal(t *testing.T) {
	a := testRec("bb01", 0, 5, 1)
	b := testRec("bb01", 0, 5, 2) // same runs, different content
	c := testRec("bb01", 0, 6, 1)
	if betterRecord(a, a) {
		t.Error("record beats itself")
	}
	if betterRecord(a, b) == betterRecord(b, a) {
		t.Error("tie-break not asymmetric for distinct content")
	}
	if !betterRecord(c, a) || betterRecord(a, c) {
		t.Error("runs ordering wrong")
	}
	if !betterRecord(a, nil) || betterRecord(nil, a) {
		t.Error("nil handling wrong")
	}
}

// cloneRecord deep-copies a record, inner target maps included.
func cloneRecord(r *profdb.Record) *profdb.Record {
	c := *r
	c.Funcs = maps.Clone(r.Funcs)
	c.Sites = maps.Clone(r.Sites)
	c.Targets = make(map[profdb.SiteKey]map[string]int64, len(r.Targets))
	for k, ts := range r.Targets {
		c.Targets[k] = maps.Clone(ts)
	}
	return &c
}

// TestBetterRecordMatchesByteOrder: the equal-copy shortcut in the
// winner order leaves every pair ordered as the byte comparison alone
// orders it, including copies that differ only in an unserialized
// empty inner target map. (profdb's TestRecordEqualMatchesSerialization
// covers Record.Equal field by field.)
func TestBetterRecordMatchesByteOrder(t *testing.T) {
	site := profdb.SiteKey{Caller: "main", Callee: "###", Ordinal: 0, PosHash: 0x33}
	base := testRec("cc01", 2, 5, 1)
	base.Targets[site] = map[string]int64{"work": 4, "leaf": 2}
	edits := map[string]func(r *profdb.Record){
		"none":          func(r *profdb.Record) {},
		"runs":          func(r *profdb.Record) { r.Runs++ },
		"il":            func(r *profdb.Record) { r.IL++ },
		"func count":    func(r *profdb.Record) { r.Funcs["leaf"]++ },
		"target count":  func(r *profdb.Record) { r.Targets[site]["leaf"]++ },
		"empty targets": func(r *profdb.Record) { r.Targets[profdb.SiteKey{Caller: "x"}] = map[string]int64{} },
		"emptied":       func(r *profdb.Record) { r.Targets[site] = map[string]int64{} },
	}
	for name, edit := range edits {
		for _, swap := range []bool{false, true} {
			a, b := base, cloneRecord(base)
			edit(b)
			if swap {
				a, b = b, a
			}
			cmp := bytes.Compare(recordBytes(a), recordBytes(b))
			if got, want := betterRecord(a, b), a.Runs > b.Runs || (a.Runs == b.Runs && cmp > 0); got != want {
				t.Errorf("%s: betterRecord = %v, byte order says %v", name, got, want)
			}
		}
	}
}

// stalledWriter is a ResponseWriter whose Write blocks until release
// is closed: a /db client that stopped reading.
type stalledWriter struct {
	header  http.Header
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStalledDBReaderDoesNotBlockIngest: a /db client that stops
// reading mid-dump must not hold the node's read lock, which would make
// the writer wait and every later ingest wait behind it.
func TestStalledDBReaderDoesNotBlockIngest(t *testing.T) {
	node := NewNode(profdb.NewDB(""), 0)
	node.Start()
	defer node.Stop()
	h := node.Handler()
	ingest := func(rec *profdb.Record) int {
		var buf bytes.Buffer
		if _, err := profdb.WriteSnapshot(&buf, "stall.c", rec); err != nil {
			t.Error(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/ingest", &buf))
		return rr.Code
	}
	if code := ingest(testRec("dd01", 0, 1, 1)); code != http.StatusOK {
		t.Fatalf("first ingest: %d", code)
	}
	w := &stalledWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	dumped := make(chan struct{})
	go func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/db", nil))
		close(dumped)
	}()
	defer func() { close(w.release); <-dumped }()
	<-w.entered
	acked := make(chan int, 1)
	go func() { acked <- ingest(testRec("dd01", 1, 1, 2)) }()
	select {
	case code := <-acked:
		if code != http.StatusOK {
			t.Errorf("ingest during a stalled /db read: %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ingest not acked while a /db client was stalled")
	}
}

// slowWriter delays every Write, so a latency that includes the
// response write is at least delay long.
type slowWriter struct {
	header http.Header
	code   int
	delay  time.Duration
}

func (w *slowWriter) Header() http.Header  { return w.header }
func (w *slowWriter) WriteHeader(code int) { w.code = code }
func (w *slowWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	time.Sleep(w.delay)
	return len(p), nil
}

// TestRouterReadHistogramCoversResponse: fleet_router_read_seconds is
// observed once per read after the response is written, on the success
// and the error path.
func TestRouterReadHistogramCoversResponse(t *testing.T) {
	f := newTestFleet(t, 3, 2)
	defer f.close()
	fp := fmt.Sprintf("%016x", uint64(0xfeed))
	if code, body := f.postRouter("hist.c", testRec(fp, 0, 1, 0)); code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, body)
	}
	const delay = 50 * time.Millisecond
	for i, want := range []int{http.StatusOK, http.StatusServiceUnavailable} {
		if want != http.StatusOK {
			f.net.Partition(logical(f.names[0]), logical(f.names[1]))
		}
		sum := f.rt.readH.Sum()
		w := &slowWriter{header: http.Header{}, delay: delay}
		f.rt.handleProfile(w, httptest.NewRequest(http.MethodGet, "/profile?fingerprint="+fp, nil))
		if w.code != want {
			t.Fatalf("read %d: status %d, want %d", i, w.code, want)
		}
		if n := f.rt.readH.Count(); n != int64(i+1) {
			t.Errorf("read %d: histogram count %d, want %d", i, n, i+1)
		}
		if got := f.rt.readH.Sum() - sum; got < delay.Seconds() {
			t.Errorf("read %d (status %d): observed %.3fs, less than the %v response write", i, want, got, delay)
		}
	}
}

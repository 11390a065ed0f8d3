package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"inlinec/internal/obs"
	"inlinec/internal/profdb"
)

// RouterOptions tunes the router's per-peer clients. The zero value is
// production-reasonable; tests tighten timeouts, zero the backoff, and
// seed the jitter.
type RouterOptions struct {
	// Transport, when non-nil, underlies every peer request — the hook
	// the chaos network injector plugs into.
	Transport http.RoundTripper
	// Timeout bounds each peer request (default 10s).
	Timeout time.Duration
	// Attempts bounds tries per peer request (default 3).
	Attempts int
	// Backoff seeds the per-retry delay (default 100ms; set negative
	// for literally zero backoff in tests).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 1s).
	MaxBackoff time.Duration
	// Seed, when non-zero, makes every client's retry jitter
	// deterministic.
	Seed int64
	// Warn receives one line per peer-request retry.
	Warn io.Writer
}

// Router is the stateless ingest/read front end of the fleet. It holds
// no profile data: every POST /ingest fans out to the ring owners of
// the record's fingerprint and acks only after ALL of them acked
// (which each does only after its WAL fsync — the single-node ack
// barrier, promoted to a replication quorum), and every GET /profile
// fans in all reachable nodes' databases, combines per-key winners,
// and merges exactly as a single node holding all the data would.
// Being stateless, any number of router instances can front the same
// fleet; given the same peer list they compute identical rings.
type Router struct {
	ring    *Ring
	clients map[string]*profdb.Client
	obs     *obs.Registry
	logw    io.Writer

	acked    *obs.Counter
	naks     *obs.Counter
	partial  *obs.Counter
	rejected *obs.Counter
	reads    *obs.Counter
	readErrs *obs.Counter
	ingestH  *obs.Histogram
	readH    *obs.Histogram
	pushed   *obs.Counter
	adopted  *obs.Counter
	sweeps   *obs.Counter
}

// NewRouter builds a router over peers with the given replication
// factor (clamped to [1, len(peers)] by the ring).
func NewRouter(peers []string, replicas int, opts RouterOptions) (*Router, error) {
	ring, err := NewRing(peers, replicas)
	if err != nil {
		return nil, err
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 10 * time.Second
	}
	if opts.Attempts <= 0 {
		opts.Attempts = 3
	}
	if opts.Backoff == 0 {
		opts.Backoff = 100 * time.Millisecond
	} else if opts.Backoff < 0 {
		opts.Backoff = 0
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = time.Second
	}
	reg := obs.NewRegistry()
	rt := &Router{
		ring:    ring,
		clients: make(map[string]*profdb.Client, len(ring.Peers())),
		obs:     reg,
		acked: reg.Counter("fleet_router_ingests_total",
			"Ingests routed, by outcome.", "result", "acked"),
		naks: reg.Counter("fleet_router_ingests_total",
			"Ingests routed, by outcome.", "result", "nak"),
		partial: reg.Counter("fleet_router_ingests_total",
			"Ingests routed, by outcome.", "result", "partial"),
		rejected: reg.Counter("fleet_router_ingests_total",
			"Ingests routed, by outcome.", "result", "rejected"),
		reads: reg.Counter("fleet_router_reads_total",
			"Merged reads served, by outcome.", "result", "ok"),
		readErrs: reg.Counter("fleet_router_reads_total",
			"Merged reads served, by outcome.", "result", "error"),
		ingestH: reg.Histogram("fleet_router_ingest_seconds",
			"Wall time of one routed ingest, including every replica's fsync.",
			obs.DefBuckets),
		readH: reg.Histogram("fleet_router_read_seconds",
			"Wall time of one fan-in merged read.", obs.DefBuckets),
		pushed: reg.Counter("fleet_router_repair_pushed_total",
			"Records pushed to lagging replicas by anti-entropy sweeps."),
		adopted: reg.Counter("fleet_router_repair_adopted_total",
			"Pushed records the receiving nodes actually adopted."),
		sweeps: reg.Counter("fleet_router_repair_sweeps_total",
			"Anti-entropy sweeps run."),
	}
	reg.Gauge("fleet_router_peers", "Storage nodes in the ring.").Set(float64(len(ring.Peers())))
	reg.Gauge("fleet_router_replicas", "Effective replication factor.").Set(float64(ring.Replicas()))
	for i, p := range ring.Peers() {
		c := profdb.NewClient(p)
		c.HTTP = &http.Client{Timeout: opts.Timeout, Transport: opts.Transport}
		c.Attempts = opts.Attempts
		c.Backoff = opts.Backoff
		c.MaxBackoff = opts.MaxBackoff
		c.Warn = opts.Warn
		c.Obs = reg
		if opts.Seed != 0 {
			c.SeedBackoff(opts.Seed + int64(i))
		}
		rt.clients[p] = c
	}
	return rt, nil
}

// SetLog directs one JSON request-log line per routed request to w.
func (rt *Router) SetLog(w io.Writer) { rt.logw = w }

// Registry exposes the router's metrics registry.
func (rt *Router) Registry() *obs.Registry { return rt.obs }

// Ring exposes the placement ring (read-only).
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router's HTTP API, wrapped in the request-log
// middleware. The surface mirrors a single node's, so clients need not
// know whether they talk to one ilprofd or a fleet.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", rt.handleIngest)
	mux.HandleFunc("/profile", rt.handleProfile)
	mux.HandleFunc("/db", rt.handleDB)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/repair", rt.handleRepair)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return obs.NewRequestLog(rt.logw, rt.obs,
		"/ingest", "/profile", "/db", "/healthz", "/repair", "/stats", "/metrics").Wrap(mux)
}

// handleIngest is the quorum write path. The record's ring owners each
// receive a copy; the client is acked 200 only when every owner
// committed (all-replica quorum: with accumulating counters, anything
// less would leave acked data a lagging replica can never prove it is
// missing — see repair.go). Zero commits with every failure provably
// not-committed is a 503: safe to retry. Anything else — a partial
// commit, or any ambiguous failure — is a 502: a retry could
// double-count on the replicas that did commit, so the client must not.
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	body := http.MaxBytesReader(w, r.Body, 64<<20)
	program, rec, err := profdb.ReadSnapshot(body)
	if err != nil {
		rt.rejected.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	owners := rt.ring.Owners(rec.Fingerprint)
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, peer := range owners {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			_, errs[i] = rt.clients[peer].PostSnapshot(program, rec)
		}(i, peer)
	}
	wg.Wait()
	rt.ingestH.Observe(time.Since(start).Seconds())

	committed := 0
	allNotCommitted := true
	var fails []string
	for i, err := range errs {
		if err == nil {
			committed++
			continue
		}
		if !provedNotCommitted(err) {
			allNotCommitted = false
		}
		fails = append(fails, fmt.Sprintf("%s: %v", owners[i], err))
	}
	switch {
	case committed == len(owners):
		rt.acked.Inc()
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "ok: %d run(s) replicated to %d node(s) for %s gen %d\n",
			rec.Runs, len(owners), rec.Fingerprint, rec.Gen)
	case committed == 0 && allNotCommitted:
		rt.naks.Inc()
		http.Error(w, "fleet: no replica committed (safe to retry): "+strings.Join(fails, "; "),
			http.StatusServiceUnavailable)
	default:
		rt.partial.Inc()
		http.Error(w, fmt.Sprintf("fleet: %d/%d replicas committed (do NOT retry): %s",
			committed, len(owners), strings.Join(fails, "; ")), http.StatusBadGateway)
	}
}

// provedNotCommitted classifies a replica-post failure after the
// per-peer client has exhausted its own retries. The client's final
// error wraps the last attempt's cause; only a dial failure or an
// explicit 503 NAK proves the node holds nothing.
func provedNotCommitted(err error) bool { return profdb.NotCommitted(err) }

// gather fetches every peer's database in parallel. Unreachable peers
// are simply absent from the result.
func (rt *Router) gather() map[string]*profdb.DB {
	peers := rt.ring.Peers()
	dbs := make([]*profdb.DB, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			db, err := rt.clients[peer].FetchDB()
			if err == nil {
				dbs[i] = db
			}
		}(i, peer)
	}
	wg.Wait()
	out := make(map[string]*profdb.DB, len(peers))
	for i, peer := range peers {
		if dbs[i] != nil {
			out[peer] = dbs[i]
		}
	}
	return out
}

// fleetView gathers all reachable databases and combines them into the
// per-key-winner view, requiring full shard coverage (every replica
// set must have at least one reachable member — otherwise some keys
// would silently be missing and the merged read would not be
// read-your-writes).
func (rt *Router) fleetView() (*profdb.DB, map[string]*profdb.DB, error) {
	dbs := rt.gather()
	if !rt.ring.Covered(func(peer string) bool { _, ok := dbs[peer]; return ok }) {
		var down []string
		for _, p := range rt.ring.Peers() {
			if _, ok := dbs[p]; !ok {
				down = append(down, p)
			}
		}
		return nil, dbs, fmt.Errorf("fleet: shard coverage incomplete, unreachable: %s",
			strings.Join(down, ", "))
	}
	ordered := make([]*profdb.DB, 0, len(dbs))
	for _, p := range rt.ring.Peers() {
		if db, ok := dbs[p]; ok {
			ordered = append(ordered, db)
		}
	}
	combined, err := combineWinners(ordered)
	if err != nil {
		return nil, dbs, err
	}
	return combined, dbs, nil
}

// handleProfile serves the fleet-merged snapshot: fan-in, winner
// combine, then the identical merge and rendering a single node uses —
// which is what makes the routed read byte-identical to a single-node
// read of the same data.
func (rt *Router) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	fp := r.URL.Query().Get("fingerprint")
	if fp == "" {
		http.Error(w, "missing fingerprint parameter", http.StatusBadRequest)
		return
	}
	params, err := mergeParamsFromQuery(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The histogram covers the whole read — fan-in, combine, merge and
	// the response write — on success and failure alike.
	defer func() { rt.readH.Observe(time.Since(start).Seconds()) }()
	combined, _, err := rt.fleetView()
	if err != nil {
		rt.readErrs.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	rt.reads.Inc()
	merged, stats := combined.Merge(fp, params)
	writeMergedSnapshot(w, fp, combined.Program, merged, stats)
}

// handleDB dumps the combined fleet view in ILPROFDB form.
func (rt *Router) handleDB(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	combined, _, err := rt.fleetView()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	combined.WriteTo(w)
}

// handleHealthz is the fleet membership probe: every peer's /healthz,
// in parallel, plus the coverage verdict. 200 means a full-fleet read
// is possible right now.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	peers := rt.ring.Peers()
	ready := make([]bool, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			ready[i] = rt.clients[peer].Ready() == nil
		}(i, peer)
	}
	wg.Wait()
	peerMap := make(map[string]bool, len(peers))
	readyCount := 0
	for i, p := range peers {
		peerMap[p] = ready[i]
		if ready[i] {
			readyCount++
		}
	}
	covered := rt.ring.Covered(func(peer string) bool { return peerMap[peer] })
	rt.obs.Gauge("fleet_router_peers_ready",
		"Peers whose readiness probe passed at the last /healthz.").Set(float64(readyCount))
	doc := struct {
		Ready    bool            `json:"ready"`
		Mode     string          `json:"mode"`
		Covered  bool            `json:"covered"`
		Replicas int             `json:"replicas"`
		Peers    map[string]bool `json:"peers"`
	}{Ready: covered, Mode: "router", Covered: covered, Replicas: rt.ring.Replicas(), Peers: peerMap}
	w.Header().Set("Content-Type", "application/json")
	if !covered {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(&doc)
}

// SweepResult reports one anti-entropy pass.
type SweepResult struct {
	// Reachable counts peers whose database could be fetched.
	Reachable int `json:"reachable"`
	// Pushed counts winner records sent to replicas holding a losing
	// (or missing) copy.
	Pushed int `json:"pushed"`
	// Adopted counts pushed records the receivers accepted.
	Adopted int `json:"adopted"`
	// Converged is true when every peer was reachable and nothing
	// needed pushing: the fleet is byte-identical to the winner view.
	Converged bool `json:"converged"`
}

// RepairSweep runs one anti-entropy pass: fetch every reachable
// database, compute per-key winners, and push each winner to the
// reachable owners whose copy loses. Adoption is adopt-if-better, so
// sweeps are idempotent and monotone; repeating until Converged drains
// all divergence the current membership can express.
func (rt *Router) RepairSweep() (*SweepResult, error) {
	rt.sweeps.Inc()
	done := rt.obs.StartSpan("fleet_repair_sweep")
	defer done()
	dbs := rt.gather()
	res := &SweepResult{Reachable: len(dbs)}
	if len(dbs) == 0 {
		return res, fmt.Errorf("fleet: no peer reachable")
	}
	ordered := make([]*profdb.DB, 0, len(dbs))
	for _, p := range rt.ring.Peers() {
		if db, ok := dbs[p]; ok {
			ordered = append(ordered, db)
		}
	}
	combined, err := combineWinners(ordered)
	if err != nil {
		return res, err
	}
	pushes := make(map[string]*profdb.DB)
	for _, key := range combined.SortedKeys() {
		winner := combined.Records[key]
		for _, owner := range rt.ring.Owners(key.Fingerprint) {
			local, reachable := dbs[owner]
			if !reachable || !betterRecord(winner, local.Records[key]) {
				continue
			}
			push := pushes[owner]
			if push == nil {
				push = profdb.NewDB(combined.Program)
				pushes[owner] = push
			}
			push.Records[key] = winner
			res.Pushed++
		}
	}
	peersToPush := make([]string, 0, len(pushes))
	for p := range pushes {
		peersToPush = append(peersToPush, p)
	}
	sort.Strings(peersToPush)
	adopted := make([]int, len(peersToPush))
	errs := make([]error, len(peersToPush))
	var wg sync.WaitGroup
	for i, peer := range peersToPush {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			adopted[i], errs[i] = rt.clients[peer].PostRepair(pushes[peer])
		}(i, peer)
	}
	wg.Wait()
	var pushErrs []string
	for i := range peersToPush {
		res.Adopted += adopted[i]
		if errs[i] != nil {
			pushErrs = append(pushErrs, fmt.Sprintf("%s: %v", peersToPush[i], errs[i]))
		}
	}
	rt.pushed.Add(int64(res.Pushed))
	rt.adopted.Add(int64(res.Adopted))
	res.Converged = len(dbs) == len(rt.ring.Peers()) && res.Pushed == 0
	if len(pushErrs) > 0 {
		return res, fmt.Errorf("fleet: repair pushes failed: %s", strings.Join(pushErrs, "; "))
	}
	return res, nil
}

// handleRepair triggers one sweep. Operators (and the CI smoke test)
// POST it in a loop until the response says converged.
func (rt *Router) handleRepair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	res, err := rt.RepairSweep()
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]interface{}{"error": err.Error(), "sweep": res})
		return
	}
	json.NewEncoder(w).Encode(res)
}

// routerStats is the GET /stats document.
type routerStats struct {
	Mode          string `json:"mode"`
	Peers         int    `json:"peers"`
	Replicas      int    `json:"replicas"`
	IngestsAcked  int64  `json:"ingests_acked"`
	IngestsNAK    int64  `json:"ingests_nak"`
	IngestsPartal int64  `json:"ingests_partial"`
	IngestsRej    int64  `json:"ingests_rejected"`
	ReadsOK       int64  `json:"reads_ok"`
	ReadsErr      int64  `json:"reads_error"`
	RepairSweeps  int64  `json:"repair_sweeps"`
	RepairPushed  int64  `json:"repair_pushed"`
	RepairAdopted int64  `json:"repair_adopted"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	doc := routerStats{
		Mode:          "router",
		Peers:         len(rt.ring.Peers()),
		Replicas:      rt.ring.Replicas(),
		IngestsAcked:  rt.acked.Value(),
		IngestsNAK:    rt.naks.Value(),
		IngestsPartal: rt.partial.Value(),
		IngestsRej:    rt.rejected.Value(),
		ReadsOK:       rt.reads.Value(),
		ReadsErr:      rt.readErrs.Value(),
		RepairSweeps:  rt.sweeps.Value(),
		RepairPushed:  rt.pushed.Value(),
		RepairAdopted: rt.adopted.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&doc)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.obs.WritePrometheus(w)
}

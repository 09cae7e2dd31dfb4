// Command loom-serve runs the online partition server (internal/serve)
// behind an HTTP/JSON API: a long-running process that ingests a graph
// stream, answers placement and routing lookups at memory speed, and
// restreams in the background when the partitioning drifts.
//
// Usage:
//
//	loom-serve -addr :8080 -k 8 [-expected 65536] [-window 256]
//	           [-threshold 0.05] [-workload 16 | -workload-file w.txt]
//	           [-labels 4] [-slack 1.2] [-seed 1]
//	           [-max-cut 0.6] [-max-imbalance 1.3] [-min-assigned 512]
//	           [-drift-window 0] [-max-migration 0]
//	           [-restream-passes 1] [-restream-priority none]
//	           [-restream-heuristic loom] [-mailbox 64]
//	           [-query-limit 200] [-replica-budget 0]
//	           [-max-msgs-per-query 0] [-query-window 0]
//	           [-refresh-queries 0] [-static-workload]
//	           [-data-dir /var/lib/loom] [-fsync always|none]
//	           [-admit-rate 0] [-admit-burst 0] [-reanchor]
//	           [-snapshot-every-batches 0] [-decay-span 0]
//	           [-shutdown-timeout 10s]
//
// With -data-dir the server is durable: accepted batches are written to a
// write-ahead log (fsynced per -fsync), snapshots are taken at restream
// swaps, on POST /checkpoint and at graceful shutdown, and a restart from
// the same directory recovers the snapshot plus the WAL tail — answering
// /place and /stats exactly as before the stop, without replaying the
// whole stream.
//
// API:
//
//	POST /ingest      body: graph text codec ("v <id> <label>" / "e <u> <v>"
//	                  lines, plus "rv <id>" / "re <u> <v>" removals);
//	                  decoded incrementally, applied in order.
//	                  With Content-Type: application/x-loom-frame the body
//	                  is length-prefixed binary frames instead, decoded on
//	                  a parallel worker pool (same ordering and durability
//	                  guarantees; a malformed frame is a 400 and nothing
//	                  from it is applied).
//	GET  /place/{v}   placement of vertex v.
//	GET  /route?v=1&v=2&v=3   shard decision for a query touching vertices.
//	GET  /stats       server statistics (drift estimators, persistence).
//	POST /query       execute a pattern traversal over the current serving
//	                  view. Body: a pattern spec ("path a b c", "cycle ...",
//	                  "star ...", "graph v0:a ... e0-1 ...") as text/plain,
//	                  or {"id","query","limit"} as application/json. The
//	                  response reports matches plus the real cross-shard
//	                  cost (messages, local/remote/replica reads). Served
//	                  patterns feed the observed-workload loop: they become
//	                  the workload the next loom restream scores against,
//	                  and with -max-msgs-per-query the per-window message
//	                  rate alone can trigger a background restream.
//	GET  /workload    query-engine statistics: message rate, view
//	                  generation, replica count, hottest observed patterns.
//	POST /query/refresh  rebuild the serving view from current placements
//	                  (and respend -replica-budget on accumulated heat).
//	POST /restream    force a restream now; ?wait=1 blocks until adopted.
//	POST /drain       assign every window-resident vertex immediately.
//	POST /checkpoint  drain + durable snapshot now (requires -data-dir).
//	GET  /healthz     liveness: state machine + queue depth; 503 once stopped.
//	GET  /readyz      readiness: 503 while wedged, re-anchoring or backlogged.
//
// Failure semantics: with -admit-rate the server sheds load at the door —
// refused ingests get 429 Too Many Requests with a Retry-After header and
// nothing is applied. A persistence failure (e.g. disk full) wedges the
// server: reads keep working, further writes get 503 Service Unavailable,
// and with -reanchor (the default) the server retries the re-anchoring
// snapshot on a capped exponential backoff until durability returns.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loom/internal/checkpoint"
	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/stream"
)

func main() {
	var o serverOptions
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.k, "k", 8, "number of partitions")
	flag.IntVar(&o.expected, "expected", serve.DefaultExpectedVertices, "expected vertex count (capacity planning; soft)")
	flag.IntVar(&o.window, "window", 256, "LOOM window size")
	flag.Float64Var(&o.threshold, "threshold", 0.05, "LOOM motif frequency threshold T")
	flag.Float64Var(&o.slack, "slack", 1.2, "capacity slack factor")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.labels, "labels", 4, "label alphabet size for the synthetic workload")
	flag.IntVar(&o.workloadN, "workload", 16, "synthetic workload size (0 = plain windowed LDG)")
	flag.StringVar(&o.workloadFile, "workload-file", "", "workload file (query text format); overrides -workload")
	flag.Float64Var(&o.maxCut, "max-cut", 0, "restream when cut fraction exceeds this (0 = disabled)")
	flag.Float64Var(&o.maxImbalance, "max-imbalance", 0, "restream when imbalance exceeds this (0 = disabled)")
	flag.IntVar(&o.minAssigned, "min-assigned", serve.DefaultMinAssigned, "drift triggers wait for this many assigned vertices")
	flag.IntVar(&o.driftWindow, "drift-window", 0, "drift cut rate is measured per this many observed edges (0 = lifetime fraction)")
	flag.Float64Var(&o.maxMigration, "max-migration", 0, "reject automatic restream swaps migrating more than this fraction of vertices (0 = unlimited)")
	flag.IntVar(&o.passes, "restream-passes", 1, "passes per background restream")
	flag.StringVar(&o.priority, "restream-priority", "none", "between-pass reordering: none|degree|ambivalence|cutdegree")
	flag.StringVar(&o.heuristic, "restream-heuristic", "loom", "restream engine: loom|ldg|fennel")
	flag.IntVar(&o.mailbox, "mailbox", serve.DefaultMailbox, "ingest mailbox capacity (batches)")
	flag.IntVar(&o.queryLimit, "query-limit", qserve.DefaultMatchLimit, "match cap per served query (-1 = unlimited; requests can tighten)")
	flag.IntVar(&o.replicaBudget, "replica-budget", 0, "hotspot replicas placed per view refresh (0 = replication off)")
	flag.Float64Var(&o.maxMsgsPerQuery, "max-msgs-per-query", 0, "restream when the per-window cross-shard message rate exceeds this (0 = disabled)")
	flag.IntVar(&o.queryWindow, "query-window", 0, "served queries per message-rate window (0 = default)")
	flag.IntVar(&o.refreshQueries, "refresh-queries", 0, "rebuild the serving view every N served queries (0 = on demand only)")
	flag.BoolVar(&o.staticWorkload, "static-workload", false, "keep the static workload: do not feed served queries back into restream scoring")
	flag.StringVar(&o.dataDir, "data-dir", "", "checkpoint directory; enables WAL + snapshot durability")
	flag.StringVar(&o.fsync, "fsync", "always", "WAL fsync policy with -data-dir: always|none")
	flag.Float64Var(&o.admitRate, "admit-rate", 0, "admission control: sustained elements/sec accepted into the mailbox (0 = unlimited)")
	flag.Float64Var(&o.admitBurst, "admit-burst", 0, "admission control: burst size in elements (0 = admit-rate)")
	flag.BoolVar(&o.reanchor, "reanchor", true, "self-heal a wedged server: retry the re-anchoring snapshot with capped backoff (needs -data-dir)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every-batches", 0, "periodic checkpoint: snapshot after every N accepted batches, bounding the WAL tail (0 = off; needs -data-dir)")
	flag.Int64Var(&o.decaySpan, "decay-span", 0, "age edges out of restream scoring after this many accepted elements (0 = never)")
	flag.DurationVar(&o.shutdownTimeout, "shutdown-timeout", 10*time.Second, "graceful drain budget for in-flight HTTP requests on SIGINT/SIGTERM")
	flag.Parse()

	srv, err := buildServer(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loom-serve: %v\n", err)
		os.Exit(1)
	}
	qe := buildEngine(srv, o)
	if st := srv.Stats(); st.Persist != nil {
		r := st.Persist.Recover
		fmt.Fprintf(os.Stderr,
			"loom-serve: durable in %s (fsync=%s): snapshot=%v replayed %d records (%d elements) in %dms\n",
			o.dataDir, st.Persist.Fsync, r.SnapshotLoaded, r.ReplayedRecords, r.ReplayedElements, r.RecoverMS)
		if r.SkippedSnapshots > 0 {
			// A skipped (damaged) snapshot means recovery fell back to an
			// older generation; any restream swap or drain after that
			// generation is not WAL-representable, so placements may
			// differ from what the previous process last served.
			fmt.Fprintf(os.Stderr,
				"loom-serve: WARNING: %d damaged snapshot(s) skipped; recovered from an older generation — placements may differ from the previous run\n",
				r.SkippedSnapshots)
		}
		if r.TornTail {
			fmt.Fprintf(os.Stderr, "loom-serve: note: torn WAL tail truncated (normal after a crash mid-write)\n")
		}
	}

	// Read/idle timeouts shed half-open and stalled connections so a slow
	// or hostile client cannot pin handler goroutines forever. ReadTimeout
	// is generous because /ingest streams arbitrarily large bodies.
	hs := &http.Server{
		Addr:              o.addr,
		Handler:           newMux(srv, qe),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), o.shutdownTimeout)
		defer cancel()
		// Shutdown waits for in-flight handlers; the serve.Server must
		// stay up until they finish (an ingest mid-stream would otherwise
		// see ErrStopped).
		_ = hs.Shutdown(ctx)
	}()
	fmt.Fprintf(os.Stderr, "loom-serve: listening on %s (k=%d)\n", o.addr, o.k)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "loom-serve: %v\n", err)
		os.Exit(1)
	}
	<-drained
	srv.Stop()
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "loom-serve: stopped; ingested=%d assigned=%d cut=%.3f restreams=%d\n",
		st.Ingested, st.Assigned, st.CutFraction, st.Restreams)
}

// serverOptions is the command line: main binds one flag to each field.
type serverOptions struct {
	addr                 string
	shutdownTimeout      time.Duration
	k, expected, window  int
	threshold, slack     float64
	seed                 int64
	labels, workloadN    int
	workloadFile         string
	maxCut, maxImbalance float64
	minAssigned, passes  int
	driftWindow          int
	maxMigration         float64
	priority, heuristic  string
	mailbox              int
	dataDir, fsync       string
	admitRate            float64
	admitBurst           float64
	reanchor             bool
	snapshotEvery        int
	decaySpan            int64
	queryLimit           int
	replicaBudget        int
	maxMsgsPerQuery      float64
	queryWindow          int
	refreshQueries       int
	staticWorkload       bool
}

// buildServer assembles a serve.Server from CLI options; shared by main
// and the end-to-end test.
func buildServer(o serverOptions) (*serve.Server, error) {
	priority, err := partition.ParsePriority(o.priority)
	if err != nil {
		return nil, err
	}
	alphabet := gen.DefaultAlphabet(o.labels)
	w, err := query.ResolveWorkload(o.workloadFile, o.workloadN, alphabet, o.seed)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Core: core.Config{
			Partition:  partition.Config{K: o.k, ExpectedVertices: o.expected, Slack: o.slack, Seed: o.seed},
			WindowSize: o.window,
			Threshold:  o.threshold,
		},
		Workload: w,
		Alphabet: alphabet,
		Mailbox:  o.mailbox,
		Drift: serve.DriftConfig{
			MaxCutFraction:       o.maxCut,
			MaxImbalance:         o.maxImbalance,
			MinAssigned:          o.minAssigned,
			WindowEdges:          o.driftWindow,
			MaxMigrationFraction: o.maxMigration,
			MaxMessagesPerQuery:  o.maxMsgsPerQuery,
			QueryWindow:          o.queryWindow,
			Passes:               o.passes,
			Priority:             priority,
			Heuristic:            o.heuristic,
		},
		Admission:            serve.AdmissionConfig{Rate: o.admitRate, Burst: o.admitBurst},
		Reanchor:             serve.ReanchorPolicy{Enabled: o.reanchor && o.dataDir != ""},
		SnapshotEveryBatches: o.snapshotEvery,
		DecaySpan:            o.decaySpan,
	}
	// Validate the fsync policy even without -data-dir, so a typo does not
	// lie dormant until durability is turned on.
	policy, err := checkpoint.ParseSyncPolicy(o.fsync)
	if err != nil {
		return nil, err
	}
	if o.dataDir == "" {
		return serve.New(cfg)
	}
	return serve.Open(cfg, serve.PersistOptions{Dir: o.dataDir, Fsync: policy})
}

// buildEngine assembles the query engine over srv from CLI options;
// shared by main and the end-to-end test. Trigger thresholds
// (max-msgs-per-query, query-window) travel via the server's DriftConfig,
// so the engine inherits them.
func buildEngine(srv *serve.Server, o serverOptions) *qserve.Engine {
	return qserve.New(srv, qserve.Options{
		MatchLimit:     o.queryLimit,
		ReplicaBudget:  o.replicaBudget,
		RefreshQueries: o.refreshQueries,
		StaticWorkload: o.staticWorkload,
	})
}

// ingestBatch bounds how many decoded elements are applied per IngestSync
// round, so decode and partitioning pipeline against each other.
const ingestBatch = 512

type ingestResponse struct {
	Accepted int      `json:"accepted"`
	Rejected int      `json:"rejected"`
	Errors   []string `json:"errors,omitempty"`
	// Frames and Deduped are reported for binary-framed ingest only:
	// frames applied, and intra-frame duplicates dropped by the decode
	// stage before the writer saw them.
	Frames  int `json:"frames,omitempty"`
	Deduped int `json:"deduped,omitempty"`
	// Error is the decode error that terminated the body mid-stream, if
	// any; Accepted/Rejected still report the batches applied before it
	// (there is no rollback).
	Error string `json:"error,omitempty"`
}

// contentTypeIs reports whether header names the media type want,
// ignoring parameters (charset etc.) and surrounding whitespace.
func contentTypeIs(header, want string) bool {
	if i := strings.IndexByte(header, ';'); i >= 0 {
		header = header[:i]
	}
	return strings.EqualFold(strings.TrimSpace(header), want)
}

// ingestText applies a body in the line-oriented text codec through
// IngestSync, batching decode against partitioning.
func ingestText(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	src := stream.FromReader(r.Body)
	before := srv.Stats()
	resp := ingestResponse{}
	batch := make([]stream.Element, 0, ingestBatch)
	// A typed refusal (wedged persistence, admission overload, stopped)
	// terminates the request: retrying the rest of the body would only
	// widen the hole the client has to re-send.
	var refused error
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		err := srv.IngestSync(batch)
		batch = batch[:0]
		switch {
		case err == nil:
		case errors.Is(err, serve.ErrWedged), errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrStopped):
			refused = err
			return false
		default: // element rejections: recorded, not fatal
			if len(resp.Errors) < 16 {
				resp.Errors = append(resp.Errors, err.Error())
			}
		}
		return true
	}
	for refused == nil {
		el, ok := src.Next()
		if !ok {
			break
		}
		batch = append(batch, el)
		if len(batch) == ingestBatch {
			flush()
		}
	}
	flush()
	// Counted from the server's own ledger (approximate only under
	// concurrent ingest requests).
	after := srv.Stats()
	resp.Accepted = int(after.Ingested - before.Ingested)
	resp.Rejected = int(after.Rejected - before.Rejected)
	if refused != nil {
		resp.Error = refused.Error()
		writeJSON(w, refusalOr(w, refused, http.StatusInternalServerError), resp)
		return
	}
	if err := src.Err(); err != nil {
		resp.Error = err.Error()
		writeJSON(w, http.StatusBadRequest, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ingestBinary applies a body of length-prefixed binary frames through
// the parallel decode front-stage. A malformed frame terminates the
// request with 400; frames before it were applied in order (there is no
// rollback), exactly like a mid-stream text decode error.
func ingestBinary(srv *serve.Server, w http.ResponseWriter, r *http.Request) {
	before := srv.Stats()
	res, err := srv.IngestFrames(r.Body)
	resp := ingestResponse{Frames: res.Frames, Deduped: res.Deduped}
	after := srv.Stats()
	resp.Accepted = int(after.Ingested - before.Ingested)
	resp.Rejected = int(after.Rejected - before.Rejected)
	if elemErr := res.Err(); elemErr != nil && len(resp.Errors) < 16 {
		resp.Errors = append(resp.Errors, elemErr.Error())
	}
	if err != nil {
		resp.Error = err.Error()
		var bad *serve.BadFrameError
		switch {
		case errors.As(err, &bad):
			writeJSON(w, http.StatusBadRequest, resp)
		default:
			writeJSON(w, refusalOr(w, err, http.StatusInternalServerError), resp)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxQueryBody bounds a /query request body; pattern specs are tiny, so
// anything bigger is a client error, not a query.
const maxQueryBody = 1 << 20

// newMux wires the HTTP surface over srv and the query engine qe.
func newMux(srv *serve.Server, qe *qserve.Engine) *http.ServeMux {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); contentTypeIs(ct, stream.BinaryContentType) {
			ingestBinary(srv, w, r)
			return
		}
		ingestText(srv, w, r)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := srv.Health()
		status := http.StatusOK
		if h.State == "stopped" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		h := srv.Health()
		status := http.StatusOK
		if !h.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
	})

	mux.HandleFunc("GET /place/{v}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.PathValue("v"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad vertex id"})
			return
		}
		p, ok := srv.Where(graph.VertexID(id))
		writeJSON(w, http.StatusOK, map[string]any{
			"vertex":    id,
			"assigned":  ok,
			"partition": int(p),
		})
	})

	mux.HandleFunc("GET /route", func(w http.ResponseWriter, r *http.Request) {
		var vs []graph.VertexID
		for _, raw := range r.URL.Query()["v"] {
			id, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("bad vertex id %q", raw)})
				return
			}
			vs = append(vs, graph.VertexID(id))
		}
		if len(vs) == 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "need at least one v= parameter"})
			return
		}
		writeJSON(w, http.StatusOK, srv.Route(vs...))
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Stats())
	})

	mux.HandleFunc("POST /query", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		if len(body) > maxQueryBody {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "query body too large"})
			return
		}
		req, err := qserve.ParseRequest(r.Header.Get("Content-Type"), body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		resp, err := qe.Query(req)
		if err != nil {
			status := http.StatusBadRequest
			if !errors.Is(err, qserve.ErrBadQuery) {
				status = refusalOr(w, err, http.StatusInternalServerError)
			}
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("GET /workload", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, qe.Stats())
	})

	mux.HandleFunc("POST /query/refresh", func(w http.ResponseWriter, r *http.Request) {
		if err := qe.Refresh(); err != nil {
			writeJSON(w, refusalOr(w, err, http.StatusInternalServerError), map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, qe.Stats())
	})

	mux.HandleFunc("POST /restream", func(w http.ResponseWriter, r *http.Request) {
		wait := r.URL.Query().Get("wait") != ""
		if !wait {
			go func() { _ = srv.Restream() }()
			writeJSON(w, http.StatusAccepted, map[string]string{"status": "restream requested"})
			return
		}
		if err := srv.Restream(); err != nil {
			writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, srv.Stats().LastRestream)
	})

	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		if err := srv.Drain(); err != nil {
			writeJSON(w, refusalOr(w, err, http.StatusInternalServerError), map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"assigned": srv.Stats().Assigned})
	})

	mux.HandleFunc("POST /checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if err := srv.Checkpoint(); err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, serve.ErrNoPersistence) {
				status = http.StatusConflict
			}
			writeJSON(w, status, map[string]string{"error": err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, srv.Stats().Persist)
	})

	return mux
}

// refusalOr maps serve's typed refusals to HTTP semantics: an admission
// refusal is 429 Too Many Requests with a Retry-After header, a wedged or
// stopped server is 503 Service Unavailable. Any other error gets
// fallback.
func refusalOr(w http.ResponseWriter, err error, fallback int) int {
	var ov *serve.OverloadError
	switch {
	case errors.As(err, &ov):
		secs := int64((ov.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(max(secs, 1), 10))
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, serve.ErrWedged), errors.Is(err, serve.ErrStopped):
		return http.StatusServiceUnavailable
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

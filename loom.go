// Package loom is a workload-aware streaming graph partitioner, a Go
// reproduction of Firth & Missier, "Workload-aware streaming graph
// partitioning" (GraphQ @ EDBT/ICDT 2016).
//
// LOOM partitions a stream of graph vertices and edges into k balanced
// parts while keeping intact the sub-graphs that a known workload of
// pattern matching queries traverses frequently. It does so by:
//
//  1. Summarising the query workload in a TPSTry++ — a DAG of query motifs
//     (frequent connected labelled sub-graphs) with traversal
//     probabilities.
//  2. Detecting motif occurrences inside a sliding window over the graph
//     stream, using incremental number-theoretic signatures.
//  3. Assigning whole motif matches to a single partition with the
//     sub-graph extension of the Linear Deterministic Greedy heuristic.
//
// # Quick start
//
//	alphabet := loom.DefaultAlphabet(4)
//	workload := loom.Fig1Workload()
//	trie, _ := loom.CaptureWorkload(workload, loom.CaptureOptions{})
//	p, _ := loom.New(loom.Config{
//		Partition: loom.PartitionConfig{K: 2, ExpectedVertices: 8},
//		Threshold: 0.3,
//	}, trie)
//	elems, _ := loom.StreamFromGraph(g, loom.TemporalOrder, nil)
//	assignment, _ := p.Run(loom.NewSliceSource(elems))
//
// The sub-packages under internal/ hold the substrates: the labelled graph
// model, generators, stream orderings and windows, signatures, exact
// isomorphism, the TPSTry++, the streaming-partitioner family (hash,
// balanced, chunking, greedy, LDG, Fennel, and an offline multilevel
// reference), the simulated distributed cluster, and metrics. This package
// re-exports the surface a downstream user needs.
package loom

import (
	"fmt"
	"io"
	"math/rand"

	"loom/internal/checkpoint"
	"loom/internal/cluster"
	"loom/internal/core"
	"loom/internal/gen"
	"loom/internal/graph"
	"loom/internal/metrics"
	"loom/internal/motif"
	"loom/internal/partition"
	"loom/internal/qserve"
	"loom/internal/query"
	"loom/internal/serve"
	"loom/internal/signature"
	"loom/internal/store"
	"loom/internal/stream"
)

// Graph model.
type (
	// Graph is a simple undirected vertex-labelled graph.
	Graph = graph.Graph
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Label is a vertex label.
	Label = graph.Label
	// Edge is an unordered vertex pair.
	Edge = graph.Edge
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// PathQuery returns a path query graph over the given labels.
func PathQuery(labels ...Label) *Graph { return graph.Path(labels...) }

// CycleQuery returns a cycle query graph over the given labels (>= 3).
func CycleQuery(labels ...Label) *Graph { return graph.Cycle(labels...) }

// StarQuery returns a star query graph.
func StarQuery(center Label, leaves ...Label) *Graph { return graph.Star(center, leaves...) }

// Fig1Graph returns the example data graph of the paper's Figure 1.
func Fig1Graph() *Graph { return graph.Fig1Graph() }

// DefaultAlphabet returns the first k single-letter labels.
func DefaultAlphabet(k int) []Label { return gen.DefaultAlphabet(k) }

// Workload model.
type (
	// Workload is a weighted set of pattern matching queries.
	Workload = query.Workload
	// Query is one pattern query with its relative frequency.
	Query = query.Query
	// Trie is the TPSTry++ motif summary of a workload.
	Trie = motif.Trie
	// Motif is one TPSTry++ node.
	Motif = motif.Node
)

// NewWorkload validates and collects queries into a workload.
func NewWorkload(queries ...Query) (*Workload, error) { return query.NewWorkload(queries...) }

// Fig1Workload returns the workload Q of the paper's Figure 1.
func Fig1Workload() *Workload { return query.Fig1Workload() }

// CaptureOptions configures workload capture into a TPSTry++.
type CaptureOptions struct {
	// MaxMotifVertices caps enumerated motif size (default 5).
	MaxMotifVertices int
	// Alphabet pre-assigns signature factors for deterministic signatures
	// independent of observation order. Optional.
	Alphabet []Label
}

// CaptureWorkload builds the TPSTry++ for a workload (Algorithm 1 applied
// to every query).
func CaptureWorkload(w *Workload, opts CaptureOptions) (*Trie, error) {
	var f *signature.Factory
	if len(opts.Alphabet) > 0 {
		f = signature.NewFactoryForAlphabet(opts.Alphabet)
	} else {
		f = signature.NewFactory()
	}
	t := motif.New(f, motif.Options{MaxMotifVertices: opts.MaxMotifVertices})
	if err := w.BuildTrie(t); err != nil {
		return nil, err
	}
	return t, nil
}

// EmptyTrie returns a TPSTry++ with no workload, for running LOOM as plain
// windowed LDG.
func EmptyTrie() *Trie {
	return motif.New(signature.NewFactory(), motif.Options{})
}

// Partitioning.
type (
	// Config parameterises a LOOM partitioner.
	Config = core.Config
	// PartitionConfig carries the base heuristic's parameters.
	PartitionConfig = partition.Config
	// Partitioner is a LOOM instance.
	Partitioner = core.Partitioner
	// Assignment maps vertices to partitions.
	Assignment = partition.Assignment
	// PartitionID identifies a partition.
	PartitionID = partition.ID
	// Stats counts LOOM activity.
	Stats = core.Stats
)

// New returns a LOOM partitioner over the workload summarised by trie.
func New(cfg Config, trie *Trie) (*Partitioner, error) { return core.New(cfg, trie) }

// Streaming.
type (
	// StreamElement is one item of a graph-stream.
	StreamElement = stream.Element
	// StreamOrder names a vertex ordering strategy.
	StreamOrder = stream.Order
	// Source yields stream elements.
	Source = stream.Source
	// ReaderSource decodes the graph text codec incrementally (FromReader).
	ReaderSource = stream.ReaderSource
)

// Stream orderings.
const (
	RandomOrder      = stream.RandomOrder
	BFSOrder         = stream.BFSOrdering
	DFSOrder         = stream.DFSOrdering
	AdversarialOrder = stream.AdversarialOrder
	TemporalOrder    = stream.TemporalOrder
)

// Stream element kinds.
const (
	VertexElement = stream.VertexElement
	EdgeElement   = stream.EdgeElement
)

// StreamFromGraph converts a static graph into a graph-stream under the
// given ordering. r may be nil for deterministic orderings.
func StreamFromGraph(g *Graph, o StreamOrder, r *rand.Rand) ([]StreamElement, error) {
	return stream.FromGraph(g, o, r)
}

// NewSliceSource adapts a materialised element slice to a Source.
func NewSliceSource(elems []StreamElement) Source { return stream.NewSliceSource(elems) }

// NewLiveSource returns an unbounded-ingestion stream generated directly
// by a preferential-attachment process (the paper's "stochastic process,
// such as user input"): total vertices, mPer attachments each, labels
// drawn uniformly from alphabet. Deterministic per seed.
func NewLiveSource(total, mPer int, alphabet []Label, seed int64) (Source, error) {
	r := rand.New(rand.NewSource(seed + 1))
	labeler := func(VertexID) Label { return alphabet[r.Intn(len(alphabet))] }
	return stream.NewLiveSource(total, mPer, labeler, seed)
}

// Rebalance repairs balance drift in an assignment by moving up to
// maxMoves boundary vertices (0 = |V|/20) toward the loadFactor target
// (0 = 1.1), preferring cut-friendly moves. It returns the moves performed
// and the cut before/after.
func Rebalance(g *Graph, a *Assignment, loadFactor float64, maxMoves int) partition.RebalanceResult {
	rb := &partition.Rebalancer{MaxLoadFactor: loadFactor, MaxMoves: maxMoves}
	return rb.Rebalance(g, a)
}

// Restreaming (multi-pass refinement, Nishimura & Ugander 2013 /
// Awadelkarim & Ugander 2020).
type (
	// RestreamPriority names the between-pass stream reordering.
	RestreamPriority = partition.Priority
	// RestreamResult bundles the final assignment and per-pass statistics.
	RestreamResult = partition.RestreamResult
	// RestreamPassStats measures one restreaming pass (cut, imbalance,
	// migration).
	RestreamPassStats = partition.PassStats
)

// Restream priorities.
const (
	RestreamNone        = partition.PriorityNone
	RestreamDegree      = partition.PriorityDegree
	RestreamAmbivalence = partition.PriorityAmbivalence
	RestreamCutDegree   = partition.PriorityCutDegree
)

// ParseRestreamPriority parses "none", "degree", "ambivalence" or
// "cutdegree".
func ParseRestreamPriority(s string) (RestreamPriority, error) { return partition.ParsePriority(s) }

// RestreamOptions configures Restream.
type RestreamOptions struct {
	// Heuristic picks the prior-aware base heuristic: "ldg" (ReLDG, the
	// default) or "fennel" (ReFennel).
	Heuristic string
	// Priority reorders the stream before every pass that has a previous
	// assignment to read.
	Priority RestreamPriority
	// SelfWeight is the bonus a vertex's own prior partition earns during
	// scoring; zero defaults to 1.
	SelfWeight float64
	// Order is the cold-start stream order (RandomOrder when zero-valued;
	// stochastic orders draw from Partition.Seed).
	Order StreamOrder
	// Partition carries k, expected vertices, slack and seed. Zero K
	// defaults to a.K() when a prior assignment is given.
	Partition PartitionConfig
}

// Restream re-runs a streaming heuristic over g for passes passes, seeded
// with prior assignment a (nil to cold-start), and returns the final
// assignment plus per-pass cut/imbalance/migration statistics. Placements
// stabilise while the cut drops toward the offline reference.
func Restream(g *Graph, a *Assignment, passes int, cfg RestreamOptions) (*RestreamResult, error) {
	pcfg := cfg.Partition
	if pcfg.K == 0 && a != nil {
		pcfg.K = a.K()
	}
	if pcfg.ExpectedVertices == 0 {
		pcfg.ExpectedVertices = g.NumVertices()
	}
	newPass := func(pass int) (partition.Streaming, error) {
		switch cfg.Heuristic {
		case "", "ldg":
			return partition.NewLDG(pcfg)
		case "fennel":
			return partition.NewFennel(partition.FennelConfig{Config: pcfg, ExpectedEdges: g.NumEdges()})
		}
		return nil, fmt.Errorf("loom: unknown restream heuristic %q", cfg.Heuristic)
	}
	base, err := stream.VertexOrder(g, cfg.Order, rand.New(rand.NewSource(pcfg.Seed)))
	if err != nil {
		return nil, err
	}
	rs := &partition.Restreamer{
		Config:  partition.RestreamConfig{Passes: passes, Priority: cfg.Priority, SelfWeight: cfg.SelfWeight},
		NewPass: newPass,
	}
	return rs.Run(g, base, a)
}

// RestreamLOOM is the workload-aware restream: every pass re-runs the full
// LOOM partitioner (window and motif tracker included) seeded with the
// previous assignment, so frequently traversed sub-graphs stay co-located
// while placements stabilise. a may be nil to cold-start.
func RestreamLOOM(g *Graph, a *Assignment, passes int, cfg Config, trie *Trie, priority RestreamPriority) (*RestreamResult, error) {
	base, err := stream.VertexOrder(g, TemporalOrder, nil)
	if err != nil {
		return nil, err
	}
	rcfg := partition.RestreamConfig{Passes: passes, Priority: priority}
	return core.Restream(g, trie, cfg, rcfg, base, a)
}

// MigrationFraction returns the fraction of cur's vertices placed
// differently than in prev — the cost of adopting a restreamed assignment.
func MigrationFraction(prev, cur *Assignment) float64 { return metrics.MigrationFraction(prev, cur) }

// PartitionGraph runs LOOM over a whole static graph presented in the
// given order and returns the final assignment: the one-call entry point.
func PartitionGraph(g *Graph, o StreamOrder, r *rand.Rand, cfg Config, trie *Trie) (*Assignment, error) {
	elems, err := stream.FromGraph(g, o, r)
	if err != nil {
		return nil, err
	}
	p, err := core.New(cfg, trie)
	if err != nil {
		return nil, err
	}
	return p.Run(stream.NewSliceSource(elems))
}

// Evaluation.
type (
	// Quality bundles structural partitioning measures.
	Quality = metrics.Quality
	// Cluster simulates a distributed deployment of an assignment.
	Cluster = cluster.Cluster
	// ExecResult accounts one simulated query execution.
	ExecResult = cluster.Result
	// WorkloadResult aggregates workload execution.
	WorkloadResult = cluster.WorkloadResult
	// CostModel prices simulated hops.
	CostModel = cluster.CostModel
)

// EvaluateQuality computes structural measures for an assignment.
func EvaluateQuality(name string, g *Graph, a *Assignment) Quality {
	return metrics.Evaluate(name, g, a)
}

// CutFraction returns the fraction of g's edges cut by a.
func CutFraction(g *Graph, a *Assignment) float64 { return metrics.CutFraction(g, a) }

// VertexImbalance returns max partition size over ideal (1.0 = perfect).
func VertexImbalance(a *Assignment) float64 { return metrics.VertexImbalance(a) }

// Synthetic data. These wrappers cover the generators examples need; the
// full family (Erdős–Rényi, Watts–Strogatz, R-MAT, grids, Zipf labels)
// lives in internal/gen.

// BarabasiAlbertGraph returns a preferential-attachment (power-law) graph
// with n vertices, mPer edges per arrival and uniform labels.
func BarabasiAlbertGraph(n, mPer int, alphabet []Label, seed int64) (*Graph, error) {
	r := rand.New(rand.NewSource(seed))
	return gen.BarabasiAlbert(n, mPer, &gen.UniformLabeler{Alphabet: alphabet, Rand: r}, r)
}

// CommunityGraph returns a planted-partition graph with k ground-truth
// communities and uniform labels: each vertex gets ~12 intra-community and
// ~3 inter-community edges regardless of n and k.
func CommunityGraph(n, k int, alphabet []Label, seed int64) (*Graph, error) {
	r := rand.New(rand.NewSource(seed))
	return gen.PlantedPartitionDegrees(n, k, 12, 3, &gen.UniformLabeler{Alphabet: alphabet, Rand: r}, r)
}

// DefaultWorkload synthesises count queries of the standard
// path/star/cycle/tree mix over the alphabet, optionally Zipf-skewed.
func DefaultWorkload(count int, alphabet []Label, zipfSkew float64, seed int64) (*Workload, error) {
	mix := query.DefaultMix(count)
	mix.ZipfSkew = zipfSkew
	return query.GenerateWorkload(mix, alphabet, rand.New(rand.NewSource(seed)))
}

// Baseline partitioners, for comparisons in examples and downstream code.

// PartitionWithLDG streams g through plain Linear Deterministic Greedy.
func PartitionWithLDG(g *Graph, o StreamOrder, r *rand.Rand, cfg PartitionConfig) (*Assignment, error) {
	s, err := partition.NewLDG(cfg)
	if err != nil {
		return nil, err
	}
	return runStreaming(g, o, r, s)
}

// PartitionWithFennel streams g through the Fennel heuristic.
func PartitionWithFennel(g *Graph, o StreamOrder, r *rand.Rand, cfg PartitionConfig) (*Assignment, error) {
	s, err := partition.NewFennel(partition.FennelConfig{Config: cfg, ExpectedEdges: g.NumEdges()})
	if err != nil {
		return nil, err
	}
	return runStreaming(g, o, r, s)
}

// PartitionWithHash places vertices by hashing their IDs.
func PartitionWithHash(g *Graph, cfg PartitionConfig) (*Assignment, error) {
	s, err := partition.NewHash(cfg)
	if err != nil {
		return nil, err
	}
	return runStreaming(g, TemporalOrder, nil, s)
}

// PartitionWithMultilevel runs the offline multilevel partitioner (the
// METIS stand-in): highest cut quality, but requires the whole graph up
// front and full repartitioning on change.
func PartitionWithMultilevel(g *Graph, k int, seed int64) (*Assignment, error) {
	ml := &partition.Multilevel{K: k, Seed: seed}
	return ml.Partition(g)
}

// Sharded deployment (internal/store): the substrate that executes
// traversals shard by shard and counts cross-shard messages, with the
// hotspot-replication layer of Yang et al.
type (
	// Store is a graph deployed across one shard per partition.
	Store = store.Store
	// StoreEngine executes traversals against a Store, counting messages.
	StoreEngine = store.Engine
	// ReplicationAdvisor picks boundary hotspots to replicate.
	ReplicationAdvisor = store.Advisor
)

// DeployStore materialises the sharded deployment of g under a.
func DeployStore(g *Graph, a *Assignment) (*Store, error) { return store.Build(g, a) }

// NewStoreEngine returns a traversal engine over st.
func NewStoreEngine(st *Store) *StoreEngine { return store.NewEngine(st) }

// NewReplicationAdvisor returns a hotspot advisor over st.
func NewReplicationAdvisor(st *Store) *ReplicationAdvisor { return store.NewAdvisor(st) }

func runStreaming(g *Graph, o StreamOrder, r *rand.Rand, s partition.Streaming) (*Assignment, error) {
	vs, err := stream.VertexOrder(g, o, r)
	if err != nil {
		return nil, err
	}
	return partition.PartitionStream(g, vs, s), nil
}

// Online serving (internal/serve): the long-running runtime that ingests
// a graph stream through a bounded mailbox, answers placement lookups
// lock-free from published snapshots, and restreams in the background when
// the partitioning drifts.
type (
	// Server is an online partition server.
	Server = serve.Server
	// ServerConfig parameterises NewServer.
	ServerConfig = serve.Config
	// ServerDriftConfig configures drift-triggered restreaming.
	ServerDriftConfig = serve.DriftConfig
	// ServerStats is the reader-visible server state.
	ServerStats = serve.Stats
	// ServerRestreamReport describes one background restream and its
	// migration plan.
	ServerRestreamReport = serve.RestreamReport
	// ServerMove is one entry of a migration plan.
	ServerMove = serve.Move
	// RouteDecision is the outcome of Server.Route.
	RouteDecision = serve.RouteDecision
	// ServerAdmissionConfig configures token-bucket admission control in
	// front of Server.Ingest.
	ServerAdmissionConfig = serve.AdmissionConfig
	// ServerOverloadError carries the Retry-After hint of an admission
	// refusal; errors.Is(err, ErrServerOverloaded) matches it.
	ServerOverloadError = serve.OverloadError
	// ServerReanchorPolicy configures self-healing of a wedged server:
	// retry the re-anchoring snapshot with capped exponential backoff.
	ServerReanchorPolicy = serve.ReanchorPolicy
	// ServerHealth is the liveness/readiness view behind Server.Health.
	ServerHealth = serve.Health
)

// ErrServerStopped is returned by operations on a stopped Server.
var ErrServerStopped = serve.ErrStopped

// ErrServerNoPersistence is returned by Server.Checkpoint on a server
// started without a data directory (NewServer instead of OpenServer).
var ErrServerNoPersistence = serve.ErrNoPersistence

// ErrServerWedged is returned by writes while persistence is wedged: a
// WAL append failed after its batch was applied, so ingest is refused
// until a snapshot (Server.Checkpoint or the self-healing re-anchor)
// restores durability. Reads keep working throughout.
var ErrServerWedged = serve.ErrWedged

// ErrServerOverloaded is returned by Server.Ingest/IngestSync and
// Server.IngestFrames/IngestText when admission control refuses a batch;
// errors.As to *ServerOverloadError for the Retry-After hint.
var ErrServerOverloaded = serve.ErrOverloaded

// NewServer starts an online partition server and its ingest loop. Feed it
// with Server.Ingest/IngestSync, query it with Server.Where/Route/Stats,
// and shut it down with Server.Stop.
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// Online queries (internal/qserve): pattern traversals served lock-free
// over the Server's copy-on-write views, feeding the observed workload,
// drift, and hotspot-replication loops back into the partitioner.
type (
	// QueryEngine serves pattern queries over a Server's exported views.
	QueryEngine = qserve.Engine
	// QueryEngineOptions parameterises NewQueryEngine.
	QueryEngineOptions = qserve.Options
	// QueryRequest is one query: a pattern spec plus optional id/limit.
	QueryRequest = qserve.Request
	// QueryResponse reports matches and the real cross-shard cost.
	QueryResponse = qserve.Response
	// QueryEngineStats is the reader-visible engine state.
	QueryEngineStats = qserve.EngineStats
	// ObservedWorkload is the windowed, decayed frequency table of served
	// patterns that replaces the static workload at restream time.
	ObservedWorkload = qserve.Observed
	// ObservedWorkloadOptions parameterises the tracker.
	ObservedWorkloadOptions = qserve.ObservedOptions
)

// ErrBadQuery is the typed refusal for a malformed query request.
var ErrBadQuery = qserve.ErrBadQuery

// NewQueryEngine builds a query engine over srv and (unless
// opts.StaticWorkload is set) installs its observed-workload tracker as
// the server's live workload source.
func NewQueryEngine(srv *Server, opts QueryEngineOptions) *QueryEngine {
	return qserve.New(srv, opts)
}

// ParseQueryRequest decodes a query request body (text pattern spec or
// JSON, switched on contentType) — the codec behind POST /query.
func ParseQueryRequest(contentType string, body []byte) (QueryRequest, error) {
	return qserve.ParseRequest(contentType, body)
}

// ParsePatternSpec parses the textual pattern form ("path a b c",
// "cycle a b c", "star hub leaf...", "graph v0:a v1:b e0-1 ...") into a
// query pattern graph.
func ParsePatternSpec(spec string) (*Graph, error) { return query.ParsePatternSpec(spec) }

// FormatPatternSpec renders p canonically in the textual pattern form.
func FormatPatternSpec(p *Graph) string { return query.FormatPatternSpec(p) }

// Durable serving (internal/checkpoint): snapshots of graph + assignment
// + serve metadata, plus a write-ahead log of accepted batches, so a
// restarted server comes up warm and answers exactly as before the stop.
type (
	// ServerPersistOptions selects the checkpoint directory and WAL fsync
	// policy for OpenServer.
	ServerPersistOptions = serve.PersistOptions
	// ServerPersistStats is the durability section of ServerStats.
	ServerPersistStats = serve.PersistStats
	// ServerRecoverInfo describes what OpenServer reconstructed.
	ServerRecoverInfo = serve.RecoverInfo
	// WALSyncPolicy says when the write-ahead log is fsynced.
	WALSyncPolicy = checkpoint.SyncPolicy
)

// WAL fsync policies for ServerPersistOptions.
const (
	// WALSyncAlways fsyncs after every appended batch (the default): an
	// acknowledged batch survives power loss.
	WALSyncAlways = checkpoint.SyncAlways
	// WALSyncNone leaves flushing to the OS page cache.
	WALSyncNone = checkpoint.SyncNone
)

// ParseWALSyncPolicy maps "always"/"none" to a WALSyncPolicy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return checkpoint.ParseSyncPolicy(s) }

// OpenServer starts a durable partition server over a checkpoint
// directory: it recovers the newest snapshot plus the WAL tail (if the
// directory holds state from a previous run), then serves like NewServer
// with every accepted batch logged, snapshots at restream swaps, on
// Server.Checkpoint, and at graceful Server.Stop. See Server.Abort for
// the crash-shaped shutdown the recovery path is tested against.
func OpenServer(cfg ServerConfig, opts ServerPersistOptions) (*Server, error) {
	return serve.Open(cfg, opts)
}

// FromReader decodes the graph text codec incrementally from r, yielding
// stream elements without materialising the graph (the ingestion path of
// loom-serve and `loom partition -order file`).
func FromReader(r io.Reader) *stream.ReaderSource { return stream.FromReader(r) }

// Binary wire protocol (internal/stream): length-prefixed CRC-framed
// element batches with varint ids and a per-frame label dictionary — the
// fast ingest front door (`POST /ingest` with Content-Type
// BinaryContentType), decoded off the writer goroutine and appended to
// the WAL verbatim.
type (
	// FrameIngest summarises one Server.IngestFrames or IngestText call:
	// batches and elements handed to the writer, intra-frame duplicates
	// dropped, the exact accepted and rejected counts the writer reported
	// for this call alone, and the joined per-batch element errors, if
	// any (FrameIngest.Err).
	FrameIngest = serve.FrameIngest
	// BadFrameError is the typed refusal for a frame that fails CRC,
	// framing or validation, or a malformed text line; nothing from a
	// bad frame, or after a bad line, reaches the writer.
	BadFrameError = serve.BadFrameError
	// FrameWriter renders element batches as binary frames onto a writer —
	// the client half of the codec.
	FrameWriter = stream.FrameWriter
)

// BinaryContentType is the HTTP Content-Type of the binary wire protocol.
const BinaryContentType = stream.BinaryContentType

// NewFrameWriter returns a FrameWriter encoding batches onto w.
func NewFrameWriter(w io.Writer) *FrameWriter { return stream.NewFrameWriter(w) }

// WriteGraph serialises g in the text codec, all vertices before all edges.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// WriteGraphStreamed serialises g in stream layout: each vertex followed
// by its edges to earlier vertices, the input model streaming partitioners
// expect when the file is replayed element by element.
func WriteGraphStreamed(w io.Writer, g *Graph) error { return graph.WriteStreamed(w, g) }

// ReadGraph parses the text codec (either layout).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// NewCluster returns a simulated cluster over g partitioned by a.
func NewCluster(g *Graph, a *Assignment, costs CostModel) (*Cluster, error) {
	return cluster.New(g, a, costs)
}

// DefaultCostModel prices intra-partition hops at 1µs and cross-partition
// hops at 100µs.
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

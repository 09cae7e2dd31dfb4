// Package checkpoint persists the online serving state of internal/serve:
// full snapshots of the canonical graph + assignment + serve metadata,
// plus an incremental write-ahead log of accepted ingest batches layered
// on top. A Store manages the data-directory layout (snapshot rotation,
// WAL segments, pruning); Open recovers the latest intact snapshot and
// the WAL tail behind it so a restarted server comes up warm instead of
// replaying its whole stream.
//
// Both codecs are layered on the repository's existing formats: a
// snapshot embeds graph.Write and partition.WriteAssignment sections
// behind a CRC32 footer, and WAL batch bodies are binary frame payloads
// of internal/stream (text bodies from earlier builds still decode, via
// stream.FromReader). Everything is crash-tolerant by construction:
// snapshots are written to a temp file and renamed into place, a snapshot
// without its footer is skipped in favour of the previous one, and a torn
// final WAL record is truncated, not fatal.
package checkpoint

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"

	"loom/internal/graph"
	"loom/internal/partition"
)

// Meta is the serve state captured alongside the graph and assignment.
// Snapshots are taken at window-empty barriers (restream swap, explicit
// checkpoint, graceful stop), so no window-resident state needs encoding.
type Meta struct {
	// Epoch is the published snapshot epoch at capture time.
	Epoch uint64
	// K is the partition count; recovery refuses a mismatching server.
	K int
	// ExpectedVertices is the effective LDG capacity parameter at capture
	// time (it grows at restream swaps); recovery seeds the rebuilt engine
	// with it so post-restart placements match an uninterrupted run.
	ExpectedVertices int
	// WindowSize, Threshold, Slack and Seed record the rest of the
	// partitioner configuration for operator sanity checks.
	WindowSize int
	Threshold  float64
	Slack      float64
	Seed       int64
	// Ingested/Rejected are the lifetime element counters.
	Ingested int64
	Rejected int64
	// Cut/Observed are the incremental drift-estimator counters.
	Cut      int
	Observed int
	// Restreams, SinceRestream and EverRestream restore the drift
	// monitor's trigger state.
	Restreams     int
	SinceRestream int
	EverRestream  bool
	// VertsAtSwap is the vertex count at the last restream swap — the
	// baseline of the adaptive ExpectedVertices re-plan. Persisted so a
	// recovered server re-plans the next swap exactly like an
	// uninterrupted one (0 before the first swap, and in snapshots
	// written before the field existed).
	VertsAtSwap int
	// NextSeq is the sequence number of the first WAL record not covered
	// by this snapshot: recovery replays records with seq >= NextSeq.
	NextSeq uint64
	// Workload is the query workload (query.WriteWorkload text, one
	// "query ..." line each) the live trie was built from when a restream
	// adopted an observed workload; recovery must replay the WAL tail
	// against that trie, not the configured one. Empty means the static
	// configured workload — also what snapshots written before the
	// section existed read as. Opaque here: the serve layer parses it.
	Workload string
}

const (
	snapshotHeader    = "loom-snapshot 1"
	sectionWorkload   = "%workload"
	sectionGraph      = "%graph"
	sectionAssignment = "%assignment"
	footerPrefix      = "%end crc32="
)

// crcWriter tees everything written through it into a running CRC32.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// WriteSnapshot serialises one snapshot to w: a header, `m <key> <value>`
// metadata lines, the optional workload section, the graph text codec,
// the assignment text codec, and a CRC32 footer over everything before
// it.
func WriteSnapshot(w io.Writer, m Meta, g *graph.Graph, a *partition.Assignment) error {
	cw := &crcWriter{w: w}
	if _, err := fmt.Fprintln(cw, snapshotHeader); err != nil {
		return err
	}
	meta := []struct {
		key string
		val string
	}{
		{"epoch", strconv.FormatUint(m.Epoch, 10)},
		{"k", strconv.Itoa(m.K)},
		{"expected_vertices", strconv.Itoa(m.ExpectedVertices)},
		{"window", strconv.Itoa(m.WindowSize)},
		{"threshold", strconv.FormatFloat(m.Threshold, 'g', -1, 64)},
		{"slack", strconv.FormatFloat(m.Slack, 'g', -1, 64)},
		{"seed", strconv.FormatInt(m.Seed, 10)},
		{"ingested", strconv.FormatInt(m.Ingested, 10)},
		{"rejected", strconv.FormatInt(m.Rejected, 10)},
		{"cut", strconv.Itoa(m.Cut)},
		{"observed", strconv.Itoa(m.Observed)},
		{"restreams", strconv.Itoa(m.Restreams)},
		{"since_restream", strconv.Itoa(m.SinceRestream)},
		{"ever_restream", boolVal(m.EverRestream)},
		{"verts_at_swap", strconv.Itoa(m.VertsAtSwap)},
		{"next_seq", strconv.FormatUint(m.NextSeq, 10)},
	}
	for _, kv := range meta {
		if _, err := fmt.Fprintf(cw, "m %s %s\n", kv.key, kv.val); err != nil {
			return err
		}
	}
	if m.Workload != "" {
		// Newline-terminated whatever the caller passed, so the next
		// section marker starts its own line.
		if _, err := fmt.Fprintf(cw, "%s\n%s\n", sectionWorkload, strings.TrimSuffix(m.Workload, "\n")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(cw, "%s\n", sectionGraph); err != nil {
		return err
	}
	if err := graph.Write(cw, g); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(cw, "%s\n", sectionAssignment); err != nil {
		return err
	}
	if err := partition.WriteAssignment(cw, a); err != nil {
		return err
	}
	// The footer is written to the underlying writer: the CRC covers every
	// byte before it.
	_, err := fmt.Fprintf(w, "%s%08x\n", footerPrefix, cw.crc)
	return err
}

func boolVal(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// ReadSnapshot parses and validates one snapshot. It fails (never panics)
// on a missing footer, a checksum mismatch, or malformed sections — the
// caller falls back to an older snapshot.
func ReadSnapshot(r io.Reader) (Meta, *graph.Graph, *partition.Assignment, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, nil, nil, err
	}
	body, err := verifyFooter(data)
	if err != nil {
		return Meta{}, nil, nil, err
	}

	// Walk lines by offset: metadata until %workload or %graph, workload
	// lines until %graph, graph codec until %assignment, assignment codec
	// until the footer.
	var m Meta
	workloadStart, graphStart, graphEnd, assignStart := -1, -1, -1, -1
	pos := 0
	for pos < len(body) && assignStart < 0 {
		lineEnd := bytes.IndexByte(body[pos:], '\n')
		if lineEnd < 0 {
			lineEnd = len(body) - pos
		}
		line := string(body[pos : pos+lineEnd])
		next := pos + lineEnd + 1
		if next > len(body) {
			next = len(body)
		}
		switch {
		case pos == 0:
			if line != snapshotHeader {
				return Meta{}, nil, nil, fmt.Errorf("checkpoint: bad snapshot header %q", line)
			}
		case graphStart < 0:
			if line == sectionGraph {
				if workloadStart >= 0 {
					m.Workload = string(body[workloadStart:pos])
				}
				graphStart = next
			} else if line == sectionWorkload && workloadStart < 0 {
				workloadStart = next
			} else if workloadStart < 0 {
				if err := parseMetaLine(&m, line); err != nil {
					return Meta{}, nil, nil, err
				}
			}
		default:
			if line == sectionAssignment {
				graphEnd = pos
				assignStart = next
			}
		}
		pos = next
	}
	if assignStart < 0 {
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: snapshot missing %%graph/%%assignment sections")
	}

	g, err := graph.Read(bytes.NewReader(body[graphStart:graphEnd]))
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: graph section: %w", err)
	}
	a, err := partition.ReadAssignment(bytes.NewReader(body[assignStart:]))
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: assignment section: %w", err)
	}
	if m.K != 0 && a.K() != m.K {
		return Meta{}, nil, nil, fmt.Errorf("checkpoint: assignment k=%d disagrees with metadata k=%d", a.K(), m.K)
	}
	return m, g, a, nil
}

// verifyFooter checks the trailing CRC line and returns the covered body.
func verifyFooter(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("checkpoint: snapshot truncated (no footer)")
	}
	lineStart := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	footer := string(data[lineStart : len(data)-1])
	if len(footer) != len(footerPrefix)+8 || footer[:len(footerPrefix)] != footerPrefix {
		return nil, fmt.Errorf("checkpoint: snapshot truncated (bad footer %q)", footer)
	}
	want, err := strconv.ParseUint(footer[len(footerPrefix):], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: bad footer checksum: %v", err)
	}
	body := data[:lineStart]
	if got := crc32.ChecksumIEEE(body); got != uint32(want) {
		return nil, fmt.Errorf("checkpoint: snapshot checksum %08x, footer says %08x", got, want)
	}
	return body, nil
}

// parseMetaLine folds one `m <key> <value>` line into m. Unknown keys are
// ignored for forward compatibility.
func parseMetaLine(m *Meta, line string) error {
	if line == "" {
		return nil
	}
	var key, val string
	if _, err := fmt.Sscanf(line, "m %s %s", &key, &val); err != nil {
		return fmt.Errorf("checkpoint: bad metadata line %q", line)
	}
	var err error
	switch key {
	case "epoch":
		m.Epoch, err = strconv.ParseUint(val, 10, 64)
	case "k":
		m.K, err = strconv.Atoi(val)
	case "expected_vertices":
		m.ExpectedVertices, err = strconv.Atoi(val)
	case "window":
		m.WindowSize, err = strconv.Atoi(val)
	case "threshold":
		m.Threshold, err = strconv.ParseFloat(val, 64)
	case "slack":
		m.Slack, err = strconv.ParseFloat(val, 64)
	case "seed":
		m.Seed, err = strconv.ParseInt(val, 10, 64)
	case "ingested":
		m.Ingested, err = strconv.ParseInt(val, 10, 64)
	case "rejected":
		m.Rejected, err = strconv.ParseInt(val, 10, 64)
	case "cut":
		m.Cut, err = strconv.Atoi(val)
	case "observed":
		m.Observed, err = strconv.Atoi(val)
	case "restreams":
		m.Restreams, err = strconv.Atoi(val)
	case "since_restream":
		m.SinceRestream, err = strconv.Atoi(val)
	case "ever_restream":
		m.EverRestream = val == "1"
	case "verts_at_swap":
		m.VertsAtSwap, err = strconv.Atoi(val)
	case "next_seq":
		m.NextSeq, err = strconv.ParseUint(val, 10, 64)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: bad metadata %s=%q: %v", key, val, err)
	}
	return nil
}

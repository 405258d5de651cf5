package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
)

// EventsSchema identifies the event-trace JSONL document format (the
// header line's "schema" field).
const EventsSchema = "mlpcache.events/v1"

// EventType names one kind of traced simulator event.
type EventType string

// The traced event types. docs/OBSERVABILITY.md documents each payload.
const (
	// EventMissIssue: a primary demand miss allocated an MSHR entry
	// and begins accruing mlp-cost (Algorithm 1 start).
	EventMissIssue EventType = "miss.issue"
	// EventMissMerge: a demand access merged into an in-flight miss.
	EventMissMerge EventType = "miss.merge"
	// EventMissFill: an MSHR entry freed at fill time; Cost is the
	// accrued mlp-based cost, CostQ its 3-bit quantization (Figure 3b).
	EventMissFill EventType = "miss.fill"
	// EventVictim: a cost-aware policy picked a victim; Recency and
	// CostQ are the LIN operands, Score = R + lambda*cost_q.
	EventVictim EventType = "victim"
	// EventPselUpdate: a policy-selector counter moved; Delta is the
	// signed step, Value the post-update counter.
	EventPselUpdate EventType = "psel.update"
	// EventSBARLeader: a leader-set access classified by the SBAR
	// tie-breaking logic; Outcome is one of both_hit, mtd_hit,
	// atd_hit, both_miss.
	EventSBARLeader EventType = "sbar.leader"
	// EventRunStart: a run boundary in a multi-run stream (mlpexp);
	// Label is the benchmark, Policy the policy spec.
	EventRunStart EventType = "run.start"

	// The snapshot.* family: periodic in-loop gauge samples emitted
	// every Config.SnapshotInterval retired instructions, turning the
	// end-of-run aggregates into time-resolved curves. Each sample
	// carries its value in Gauge; snapshot.cost_hist additionally uses
	// Value as the histogram bin index.

	// EventSnapshotIPC: retired instructions per cycle over the
	// interval since the previous snapshot.
	EventSnapshotIPC EventType = "snapshot.ipc"
	// EventSnapshotMPKI: L2 demand misses per thousand retired
	// instructions over the interval.
	EventSnapshotMPKI EventType = "snapshot.mpki"
	// EventSnapshotAvgCostQ: mean quantized mlp-cost per serviced miss
	// over the interval (Figure 3b quantization).
	EventSnapshotAvgCostQ EventType = "snapshot.avg_cost_q"
	// EventSnapshotMSHR: the miss file's occupancy at the boundary.
	EventSnapshotMSHR EventType = "snapshot.mshr_occupancy"
	// EventSnapshotCostHist: one cumulative Figure 2 histogram bin
	// count at the boundary; Value is the bin index, Gauge the count.
	EventSnapshotCostHist EventType = "snapshot.cost_hist"
)

// IsSnapshot reports whether the type belongs to the snapshot.* gauge
// family. Snapshot samples are exempt from every-Nth sampling in
// FilterTracer — dropping points from a gauge series would corrupt it —
// but still subject to the type allow-list.
func (t EventType) IsSnapshot() bool { return strings.HasPrefix(string(t), "snapshot.") }

// eventIDs registers each event type's one-byte mlpcache.events/v2
// record ID alongside its dotted name. IDs are append-only wire
// contract: never renumber or reuse one (docs/OBSERVABILITY.md keeps
// the matching table, and the root TestDocContracts pins both
// directions).
var eventIDs = map[EventType]byte{
	EventMissIssue:        1,
	EventMissMerge:        2,
	EventMissFill:         3,
	EventVictim:           4,
	EventPselUpdate:       5,
	EventSBARLeader:       6,
	EventRunStart:         7,
	EventSnapshotIPC:      8,
	EventSnapshotMPKI:     9,
	EventSnapshotAvgCostQ: 10,
	EventSnapshotMSHR:     11,
	EventSnapshotCostHist: 12,
}

// eventByID is the inverse of eventIDs, built once at init.
var eventByID = func() map[byte]EventType {
	inv := make(map[byte]EventType, len(eventIDs))
	for ty, id := range eventIDs {
		if _, dup := inv[id]; dup {
			panic("metrics: duplicate v2 event ID " + string(ty))
		}
		inv[id] = ty
	}
	return inv
}()

// EventTypeID returns the type's stable mlpcache.events/v2 record ID.
func EventTypeID(t EventType) (byte, bool) {
	id, ok := eventIDs[t]
	return id, ok
}

// EventTypeByID resolves a v2 record ID back to its event type.
func EventTypeByID(id byte) (EventType, bool) {
	ty, ok := eventByID[id]
	return ty, ok
}

// Event is one traced simulator event — one JSONL line in an events
// document. Only Type is always present; every other field is omitted
// when zero (absent means 0 / empty), except Outcome which is a string
// precisely so that its values are never dropped.
type Event struct {
	Type    EventType `json:"t"`
	Cycle   uint64    `json:"cycle,omitempty"`
	Addr    uint64    `json:"addr,omitempty"`
	Block   uint64    `json:"block,omitempty"`
	Set     int       `json:"set,omitempty"`
	Way     int       `json:"way,omitempty"`
	Cost    float64   `json:"cost,omitempty"`
	CostQ   int       `json:"cost_q,omitempty"`
	Recency int       `json:"r,omitempty"`
	Score   int       `json:"score,omitempty"`
	Policy  string    `json:"policy,omitempty"`
	Delta   int       `json:"delta,omitempty"`
	Value   int       `json:"value,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	Label   string    `json:"label,omitempty"`
	Gauge   float64   `json:"gauge,omitempty"`
	// Tid is the issuing core's index in a multi-core run. Appended for
	// multi-core tracing under the append-only field contract: it takes
	// the next v2 presence-mask bit and is omitted when zero, so
	// single-core captures are byte-identical to pre-Tid ones.
	Tid int `json:"tid,omitempty"`
}

// Tracer receives simulator events. A nil Tracer disables tracing; every
// emit site is guarded by a nil check so the disabled path costs one
// branch.
type Tracer interface {
	Emit(Event)
}

// JSONLTracer streams events as JSONL through a buffered writer. The
// header line is written at construction. Write errors are sticky: the
// first one is kept and later Emits become no-ops, so hot paths never
// check errors — call Flush once at the end.
type JSONLTracer struct {
	bw    *bufio.Writer
	enc   *json.Encoder
	err   error
	count uint64
}

// NewJSONLTracer wraps w and writes the events header line. hdr.Schema
// is forced to EventsSchema.
func NewJSONLTracer(w io.Writer, hdr RunHeader) *JSONLTracer {
	hdr.Schema = EventsSchema
	bw := bufio.NewWriter(w)
	t := &JSONLTracer{bw: bw, enc: json.NewEncoder(bw)}
	t.err = t.enc.Encode(hdr)
	return t
}

// Emit writes one event line (no-op after a write error).
func (t *JSONLTracer) Emit(ev Event) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(ev)
	if t.err == nil {
		t.count++
	}
}

// Events returns the number of events successfully encoded.
func (t *JSONLTracer) Events() uint64 { return t.count }

// Flush drains the buffer and returns the first error seen, if any.
func (t *JSONLTracer) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// FuncTracer adapts a function to the Tracer interface (handy in tests).
type FuncTracer func(Event)

// Emit calls the function.
func (f FuncTracer) Emit(ev Event) { f(ev) }

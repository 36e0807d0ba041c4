package engine

import "fxa/internal/emu"

// Trace supplies committed-path dynamic instruction records to a timing
// engine.
type Trace interface {
	Next() (emu.Record, bool)
}

// BatchTrace is an optional extension of Trace. NextBatch fills buf with
// the next records and returns how many it produced, allowing a front
// end to pay the per-record interface-call overhead once per batch. A
// zero return means the trace ended; a short non-zero return is legal
// (the consumer simply refills later). The record sequence must be
// exactly what repeated Next calls would yield. emu.Stream implements
// this; NewTraceReader detects it with a type assertion at construction
// and falls back to Next otherwise.
type BatchTrace interface {
	Trace
	NextBatch(buf []emu.Record) int
}

// CodeGenTrace is an optional extension of Trace for traces backed by a
// machine that can report code-write generations (emu.Stream). CodeGen
// returns a counter that increases whenever a store lands in a page that
// instructions were previously fetched from; timing engines that memoize
// per-PC decode metadata compare it between Step slices and drop their
// tables on a change. The generation is a hygiene signal, not a
// correctness requirement — engines must still validate each cached
// entry against the record's authoritative Inst.
type CodeGenTrace interface {
	CodeGen() uint64
}

// FaultTrace is an optional extension of Trace for traces that can stop
// on a fault (emu.Stream: an undecodable word, a wild access). Err
// reports the fault after the trace has ended; nil means it ended
// normally. Run probes for it once the engine has drained.
type FaultTrace interface {
	Err() error
}

// TraceBatch is the refill size used when the trace supports batching:
// large enough to amortize the interface call, small enough that the
// buffer stays resident in L1 (64 records × 32 B = 2 KiB).
const TraceBatch = 64

// TraceReader is the shared front half of every timing engine: it
// consumes a Trace one record at a time, transparently batching through
// BatchTrace when the trace supports it, and remembers end-of-trace. The
// seed implementation duplicated this state machine (batcher/batchBuf/
// batchHead/traceDone) in both internal/core and internal/inorder; this
// is the single copy.
//
// TraceReader is a value type embedded in the engine structs — its only
// allocation is the batch buffer, made once at construction.
type TraceReader struct {
	trace   Trace
	batcher BatchTrace
	buf     []emu.Record
	head    int
	done    bool
}

// NewTraceReader wraps t, probing for batch support.
func NewTraceReader(t Trace) TraceReader {
	r := TraceReader{trace: t}
	if bt, ok := t.(BatchTrace); ok {
		r.batcher = bt
		r.buf = make([]emu.Record, 0, TraceBatch)
	}
	return r
}

// Next returns the next committed-path record, or ok=false when the
// trace has ended. After the first false return every later call is
// false too (Done latches).
//
// The buffered-record fast path is deliberately small enough to inline
// into the timing cores' fetch stages (it runs once per fetched
// instruction); refills, end-of-trace and the unbatched fallback take
// the out-of-line nextSlow call.
func (r *TraceReader) Next() (emu.Record, bool) {
	if r.head < len(r.buf) {
		rec := r.buf[r.head]
		r.head++
		return rec, true
	}
	return r.nextSlow()
}

// nextSlow is the out-of-line remainder of Next: end-of-trace, batch
// refills, and the record-at-a-time path for traces without batch
// support.
func (r *TraceReader) nextSlow() (emu.Record, bool) {
	if r.done {
		return emu.Record{}, false
	}
	if r.batcher != nil {
		n := r.batcher.NextBatch(r.buf[:cap(r.buf)])
		r.buf = r.buf[:n]
		if n == 0 {
			r.head = 0
			r.done = true
			return emu.Record{}, false
		}
		r.head = 1
		return r.buf[0], true
	}
	rec, ok := r.trace.Next()
	if !ok {
		r.done = true
	}
	return rec, ok
}

// Done reports whether the trace has ended (a Next call returned false).
func (r *TraceReader) Done() bool { return r.done }

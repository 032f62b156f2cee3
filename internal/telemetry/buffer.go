package telemetry

// Buffer is a Sink that stages Emit and Period calls for ordered
// replay into an inner sink. It exists for parallel fan-out with a
// deterministic merge: each concurrent producer (a rack node's control
// loop) gets its own Buffer, and the coordinator flushes the buffers
// in node-index order at the barrier, so the inner hub's event stream,
// JSONL, and derived metrics come out byte-identical to a sequential
// run regardless of goroutine completion order.
//
// BeginPhase/EndPhase pass straight through: phase spans are timed at
// call time (buffering them would charge the queue wait to the phase),
// the inner sink is the producer's own node view (Hub.NodeSink), whose
// open spans no other loop can touch, and the per-phase duration
// histogram is commutative across nodes — in seeded contexts the zero
// clock makes every span 0 s, so the exposition stays byte-identical.
//
// A Buffer is owned by one producer goroutine; only the flushing
// goroutine may call Flush/Discard, and only after the producers have
// stopped (the coordinator's WaitGroup barrier provides that edge).
// It is not safe for concurrent use on its own.
type Buffer struct {
	inner Sink
	ops   []bufferedOp
}

// bufferedOp is one staged Emit (event) or Period (sample) call.
type bufferedOp struct {
	isPeriod bool
	event    Event
	sample   PeriodSample
}

// NewBuffer stages Emit/Period calls for replay into inner.
func NewBuffer(inner Sink) *Buffer { return &Buffer{inner: inner} }

// Inner returns the wrapped sink.
func (b *Buffer) Inner() Sink { return b.inner }

// Pending returns the number of staged calls awaiting Flush.
func (b *Buffer) Pending() int { return len(b.ops) }

// Emit implements Sink by staging the event.
func (b *Buffer) Emit(e Event) {
	b.ops = append(b.ops, bufferedOp{event: e})
}

// Period implements Sink by staging the sample.
func (b *Buffer) Period(s PeriodSample) {
	b.ops = append(b.ops, bufferedOp{isPeriod: true, sample: s})
}

// BeginPhase implements Sink; phase spans pass through unbuffered.
func (b *Buffer) BeginPhase(period int, phase string) {
	if b.inner != nil {
		b.inner.BeginPhase(period, phase)
	}
}

// EndPhase implements Sink; phase spans pass through unbuffered.
func (b *Buffer) EndPhase(period int, phase string) {
	if b.inner != nil {
		b.inner.EndPhase(period, phase)
	}
}

// Flush replays the staged calls into the inner sink in the order they
// were made, then clears the stage.
func (b *Buffer) Flush() {
	if b.inner != nil {
		for i := range b.ops {
			if b.ops[i].isPeriod {
				b.inner.Period(b.ops[i].sample)
			} else {
				b.inner.Emit(b.ops[i].event)
			}
		}
	}
	b.Discard()
}

// Discard drops the staged calls without replaying them (the rack
// coordinator uses this when a period fails mid-fan-out: no node's
// partial-period telemetry reaches the hub, matching the record
// commit).
func (b *Buffer) Discard() { b.ops = b.ops[:0] }

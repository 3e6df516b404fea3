package pfs

import (
	"errors"
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/sim"
)

// Client-side failure recovery: per-sub-request deadlines, bounded retry
// with exponential backoff and jitter, and hedged reads. Everything runs
// on virtual-clock timers, and the zero-value Policy reproduces the
// legacy fault-free protocol event for event — no timers are armed and no
// extra randomness is drawn, so fault-free runs stay bit-identical.
//
// Timers are not cancelled when an attempt resolves early; the losers
// fire as no-ops. A drained engine's clock can therefore sit at the last
// armed deadline, so latency measurements must bracket operations with
// callbacks rather than read the clock after Run returns.

// Policy configures a client's recovery behaviour. Fields at their zero
// value disable the corresponding mechanism.
type Policy struct {
	// Timeout is the per-sub-request deadline. When it expires before the
	// server replies the attempt fails with ErrTimeout (and may retry).
	// 0 disables deadlines: a crashed server then hangs the operation.
	Timeout sim.Duration

	// MaxRetries bounds how many times one sub-request is re-issued after
	// a retryable error (timeout or transient I/O error).
	MaxRetries int

	// Backoff is the base delay before the first retry; each further
	// retry doubles it, with ±50% jitter drawn from the engine RNG.
	// 0 retries immediately.
	Backoff sim.Duration

	// HedgeAfter re-issues a read sub-request that has not completed
	// after this long and takes whichever copy finishes first — the
	// classic tail-latency cut for straggling or request-dropping
	// servers. 0 disables hedging. Writes are never hedged; their
	// duplicate would double-commit queue load for no integrity benefit
	// (retries already make writes idempotent).
	HedgeAfter sim.Duration

	// FailFast makes Open and Create refuse files whose layout stores
	// data on a server the MDS considers Down, returning *DegradedError
	// instead of a handle that would stall until recovery.
	FailFast bool
}

// subOp drives one striped sub-request through deadline, retry, backoff
// and hedging. done fires exactly once per sub-request, with nil or the
// first fatal error; a successful payload read has by then copied its
// bytes into the request's buffer.
type subOp struct {
	f       *File
	r       *Request
	sub     layout.SubRequest
	payload []byte     // a payload write's bytes for this sub-request
	parent  obs.SpanID // enclosing operation's span; 0 when untraced
	done    func(error)

	attempt int
	settled bool
}

func (o *subOp) settle(data []byte, err error) {
	if o.settled {
		return
	}
	o.settled = true
	if err == nil && o.r.Op == device.Read && o.r.Data != nil {
		o.f.copyFragments(o.r, o.sub, data)
	}
	o.done(err)
}

// attempt is one try of a sub-request against its serving server: the
// wire exchange, an optional hedge for reads, and a deadline timer. The
// first of the three to produce an outcome resolves the attempt; the
// losers find resolved set and fall silent, so late completions never
// touch freed state.
type attempt struct {
	o        *subOp
	server   *Server
	rg       *replGroup // the slot's replica group; nil for plain files
	span     obs.SpanID
	start    sim.Time
	resolved bool
}

// run launches one attempt. With the zero policy this is exactly the
// plain wire protocol: request out, disk service, reply back, done.
//
// A replicated file's attempt targets the slot's current serving replica
// (wherever the view moved it), runs the replication protocol on the
// server side instead of a plain disk op, and hedges to an eligible
// backup rather than the same server.
func (o *subOp) run() {
	fs := o.f.client.fs
	p := o.f.client.Policy
	a := &attempt{o: o, server: fs.servers[o.sub.Server]}
	if rs := o.f.meta.Repl; rs != nil {
		a.rg = rs.groups[o.sub.Server]
		sid, ok := a.rg.g.Serving()
		if !ok {
			o.bounce(a.rg)
			return
		}
		a.server = fs.servers[sid]
	}
	a.start = fs.engine.Now()
	if fs.tracer != nil {
		a.span = o.beginAttempt(a.server, a.rg)
	}
	a.exchange(false, a.server)
	if o.r.Op == device.Read && p.HedgeAfter > 0 {
		fs.engine.Schedule(p.HedgeAfter, a.hedge)
	}
	if p.Timeout > 0 {
		fs.engine.Schedule(p.Timeout, func() {
			a.resolve(false, nil, fmt.Errorf("%w: server %s", ErrTimeout, a.server.Name))
		})
	}
}

// exchange performs one full wire round trip against target. A request
// the server drops simply never calls back; the deadline timer is then
// the only way the attempt resolves. Each payload read gets its own
// buffer, so a losing exchange never writes the winner's bytes.
func (a *attempt) exchange(hedge bool, target *Server) {
	o := a.o
	c := o.f.client
	var outBytes, replyBytes int64
	data := o.payload
	if o.r.Op == device.Write {
		outBytes = o.sub.Size
	} else {
		replyBytes = o.sub.Size
		if o.r.Data != nil {
			data = make([]byte, o.sub.Size)
		}
	}
	c.fs.net.TransferSpan(a.span, c.node, target.node, outBytes, func(sim.Time) {
		handle := func(err error) {
			back := replyBytes
			if err != nil {
				back = 0 // error replies carry no payload
			}
			c.fs.net.TransferSpan(a.span, target.node, c.node, back, func(sim.Time) {
				a.resolve(hedge, data, err)
			})
		}
		switch {
		case a.rg == nil:
			target.serve(o.r.Op, o.f.meta.ID, o.sub.Local, data, o.sub.Size, a.span, handle)
		case o.r.Op == device.Write:
			c.fs.beginReplWrite(o.f.meta, o.sub.Server, target, o.sub.Local, data, o.sub.Size, a.span, handle)
		default:
			c.fs.replRead(o.f.meta, o.sub.Server, target, o.sub.Local, data, o.sub.Size, a.span, handle)
		}
	})
}

// hedge re-issues a still-unresolved read. Replication gives the hedge
// somewhere better to go than the same straggling server: an eligible
// backup holds every acked byte and can serve the read itself.
func (a *attempt) hedge() {
	if a.resolved || a.o.settled {
		return
	}
	c := a.o.f.client
	c.fs.Faults.Hedges++
	target := a.server
	if a.rg != nil {
		if alt, ok := a.rg.g.AlternateFor(target.ID); ok {
			target = c.fs.servers[alt]
		}
	}
	if tr := c.fs.tracer; tr != nil {
		tr.Instant(c.name, "hedge", a.span, obs.T("server", target.Name))
	}
	a.exchange(true, target)
}

// resolve settles the attempt with the first outcome to arrive.
func (a *attempt) resolve(hedge bool, data []byte, err error) {
	o := a.o
	if a.resolved || o.settled {
		return
	}
	a.resolved = true
	fs := o.f.client.fs
	if hedge {
		fs.Faults.HedgeWins++
	}
	if tr := fs.tracer; tr != nil {
		tr.End(a.span, obs.T("outcome", attemptOutcome(hedge, err)))
	}
	if err == nil {
		// Successful sub-request: attribute client-observed latency and
		// bytes to the handle's layout region and the attempt's serving
		// server for the skew heatmap.
		fs.sketches.ObserveRegion(o.f.region, a.server.ID,
			o.sub.Size, fs.engine.Now().Sub(a.start))
	}
	o.outcome(a.server, data, err)
}

// beginAttempt opens an attempt span on the client's track; attempts on
// replicated files also carry their group's coordinates.
func (o *subOp) beginAttempt(server *Server, rg *replGroup) obs.SpanID {
	tags := []obs.Tag{
		obs.T("op", o.r.Op.String()), obs.T("server", server.Name),
		obs.TInt("attempt", int64(o.attempt)), obs.TInt("bytes", o.sub.Size),
	}
	if rg != nil {
		tags = append(tags, obs.TInt("group", int64(rg.g.Slot())), obs.TInt("view", int64(rg.g.View())))
	}
	return o.f.client.fs.tracer.Begin(o.f.client.name, "attempt", o.parent, tags...)
}

// outcome handles one attempt's result: success clears Suspect, a
// retryable failure re-runs after backoff while budget remains, and
// anything else settles the sub-request with an error.
func (o *subOp) outcome(server *Server, data []byte, err error) {
	fs := o.f.client.fs
	if err == nil {
		fs.markHealthy(server.ID)
		o.settle(data, nil)
		return
	}
	if errors.Is(err, ErrTimeout) {
		fs.Faults.Timeouts++
		fs.markSuspect(server.ID)
	}
	p := o.f.client.Policy
	if o.attempt < p.MaxRetries && Retryable(err) {
		o.attempt++
		fs.Faults.Retries++
		if tr := fs.tracer; tr != nil {
			tr.Instant(o.f.client.name, "retry", o.parent,
				obs.T("server", server.Name), obs.TInt("attempt", int64(o.attempt)))
		}
		fs.engine.Schedule(o.backoff(p), o.run)
		return
	}
	if p.MaxRetries > 0 {
		err = fmt.Errorf("%w: %w", ErrRetriesExhausted, err)
	}
	o.settle(nil, err)
}

// attemptOutcome renders an attempt's result for the span's outcome tag.
func attemptOutcome(hedge bool, err error) string {
	switch {
	case err == nil && hedge:
		return "hedge-win"
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	default:
		return "error"
	}
}

// backoff returns the delay before attempt n (1-based): Backoff doubled
// per retry with ±50% jitter. The RNG is touched only here, so runs
// without faults draw exactly the randomness they always did.
func (o *subOp) backoff(p Policy) sim.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	exp := o.attempt - 1
	if exp > 16 {
		exp = 16 // cap the doubling well below overflow
	}
	base := p.Backoff << uint(exp)
	jitter := 0.5 + o.f.client.fs.engine.Rand().Float64() // [0.5, 1.5)
	return sim.Duration(float64(base) * jitter)
}

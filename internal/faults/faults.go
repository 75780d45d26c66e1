// Package faults is a seeded, deterministic fault-injection layer for the
// simulated PGAS runtime. The paper's signal/poll protocol (§3.4, Figs. 3–4)
// assumes every producer RPC eventually reaches every consumer and every
// one-sided get completes — guarantees a real GASNet-EX deployment does not
// provide for free. This package lets tests and the CLI revoke those
// guarantees on purpose: the simulated NIC, RPC layer, and GPU device consult
// an Injector on every operation and may be told to drop, duplicate, or
// delay a signal, transiently fail a transfer or a device allocation, stall
// a rank, or kill a device outright.
//
// Decisions are pure functions of (seed, fault class, actor, per-actor
// operation index) via a splitmix64 hash, so a plan with a fixed seed injects
// the same fault sequence into each actor on every run regardless of how the
// scheduler interleaves ranks — the property the chaos suite's
// bitwise-checked reproductions rely on.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrTransient is the base class of every injected fault that a resilient
// caller is expected to absorb (retry, fall back, or re-request) rather than
// abort on. Wrapped errors satisfy errors.Is(err, ErrTransient).
var ErrTransient = errors.New("faults: transient fault")

// Class enumerates the injectable fault classes.
type Class uint8

const (
	// DropSignal silently discards a producer→consumer RPC.
	DropSignal Class = iota
	// DupSignal delivers an RPC twice (at-least-once delivery).
	DupSignal
	// DelaySignal defers an RPC's delivery by several progress ticks.
	DelaySignal
	// TransientTransfer fails an Rget/Rput/Copy attempt; the runtime
	// retries with exponential backoff.
	TransientTransfer
	// TransientOOM fails a device allocation once; the next attempt may
	// succeed.
	TransientOOM
	// RankStall freezes a rank for a short real-time window.
	RankStall
	// DeviceFail kills a device permanently; the bound ranks must demote
	// themselves to CPU kernels.
	DeviceFail

	// The server classes model client- and cache-side misbehaviour against
	// sympackd rather than runtime faults inside a factorization. The
	// "actor" of their decision streams is a request sequence number, not
	// a rank. They are excluded from the "all" pseudo-class: "all" means
	// every transient fault a factorization must absorb, and these target
	// the service layer above it.

	// SlowClient holds an admitted request for a while before serving it,
	// simulating a client that trickles its body or a stalled upstream —
	// the load pattern that exhausts admission capacity.
	SlowClient
	// CanceledRequest cancels an admitted request's context mid-flight,
	// exercising the cooperative-cancellation path end to end.
	CanceledRequest
	// CacheThrash force-evicts the cache entries a request would have hit,
	// simulating budget pressure from competing patterns.
	CacheThrash

	// NumClasses is the number of fault classes.
	NumClasses
)

var classNames = [NumClasses]string{
	DropSignal:        "drop",
	DupSignal:         "dup",
	DelaySignal:       "delay",
	TransientTransfer: "transfer",
	TransientOOM:      "oom",
	RankStall:         "stall",
	DeviceFail:        "devfail",
	SlowClient:        "slowclient",
	CanceledRequest:   "cancelreq",
	CacheThrash:       "cachethrash",
}

// IsServerClass reports whether c targets the service layer (sympackd)
// rather than the factorization runtime.
func IsServerClass(c Class) bool {
	return c == SlowClient || c == CanceledRequest || c == CacheThrash
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// Plan describes what to inject: a per-class probability (per operation),
// an optional per-class cap on total injections, and the shape parameters
// of delays and stalls. The zero value injects nothing.
type Plan struct {
	// Seed drives every injection decision.
	Seed int64
	// Rate is the per-operation injection probability per class, in [0,1].
	Rate [NumClasses]float64
	// Limit caps the total injections per class (0 = unlimited).
	Limit [NumClasses]int64
	// MaxDelayTicks bounds how many progress ticks a delayed signal is
	// deferred (default 3; the actual delay is 1..MaxDelayTicks).
	MaxDelayTicks int
	// StallWindow is the real-time duration of one injected rank stall
	// (default 100µs).
	StallWindow time.Duration
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	for _, r := range p.Rate {
		if r > 0 {
			return true
		}
	}
	return false
}

// String renders the plan in the syntax Parse accepts.
func (p *Plan) String() string {
	if !p.Active() {
		return "none"
	}
	var parts []string
	for c := Class(0); c < NumClasses; c++ {
		if p.Rate[c] <= 0 {
			continue
		}
		s := fmt.Sprintf("%s=%g", c, p.Rate[c])
		if p.Limit[c] > 0 {
			s += fmt.Sprintf("/%d", p.Limit[c])
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}

// DefaultChaos returns a moderate all-transient-classes plan: every
// recoverable class is exercised, device death is left out (it is a
// different contract — permanent demotion — and is opted into explicitly).
func DefaultChaos(seed int64) Plan {
	p := Plan{Seed: seed}
	p.Rate[DropSignal] = 0.05
	p.Rate[DupSignal] = 0.05
	p.Rate[DelaySignal] = 0.10
	p.Rate[TransientTransfer] = 0.05
	p.Rate[TransientOOM] = 0.10
	p.Rate[RankStall] = 0.002
	return p
}

// ServerChaos returns a moderate plan over the server fault classes, the
// counterpart of DefaultChaos for sympackd's request path: slow clients,
// mid-flight cancellations and cache thrashing, all deterministic in the
// seed and the request sequence number.
func ServerChaos(seed int64) Plan {
	p := Plan{Seed: seed}
	p.Rate[SlowClient] = 0.10
	p.Rate[CanceledRequest] = 0.05
	p.Rate[CacheThrash] = 0.05
	return p
}

// Parse builds a Plan from a comma-separated spec like
//
//	drop=0.02,dup=0.02,delay=0.05,transfer=0.02,oom=0.05,stall=0.002
//
// Each entry is class=rate or class=rate/limit; the pseudo-class "all"
// applies a rate to every transient runtime class (everything except
// devfail and the server classes, which are opted into by name).
func Parse(spec string, seed int64) (Plan, error) {
	p := Plan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return Plan{}, fmt.Errorf("faults: bad entry %q (want class=rate)", part)
		}
		val, lim := kv[1], ""
		if i := strings.IndexByte(val, '/'); i >= 0 {
			val, lim = val[:i], val[i+1:]
		}
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil || rate < 0 || rate > 1 {
			return Plan{}, fmt.Errorf("faults: bad rate in %q (want 0..1)", part)
		}
		var limit int64
		if lim != "" {
			limit, err = strconv.ParseInt(lim, 10, 64)
			if err != nil || limit < 0 {
				return Plan{}, fmt.Errorf("faults: bad limit in %q", part)
			}
		}
		name := strings.ToLower(strings.TrimSpace(kv[0]))
		if name == "all" {
			for c := Class(0); c < NumClasses; c++ {
				if c == DeviceFail || IsServerClass(c) {
					continue
				}
				p.Rate[c], p.Limit[c] = rate, limit
			}
			continue
		}
		found := false
		for c := Class(0); c < NumClasses; c++ {
			if classNames[c] == name {
				p.Rate[c], p.Limit[c] = rate, limit
				found = true
				break
			}
		}
		if !found {
			return Plan{}, fmt.Errorf("faults: unknown class %q (have drop dup delay transfer oom stall devfail slowclient cancelreq cachethrash all)", name)
		}
	}
	return p, nil
}

// Resolve turns a command line's (explicit spec, chaos seed) flag pair into
// an optional plan: a spec wins and is seeded by the chaos seed when that is
// non-zero, else by specSeed; a chaos seed alone selects def(chaos), the
// default plan of the kind in question; neither means no injection (nil).
func Resolve(spec string, chaos, specSeed int64, def func(int64) Plan) (*Plan, error) {
	var p Plan
	switch {
	case spec != "":
		if chaos != 0 {
			specSeed = chaos
		}
		var err error
		if p, err = Parse(spec, specSeed); err != nil {
			return nil, err
		}
	case chaos != 0:
		p = def(chaos)
	default:
		return nil, nil
	}
	return &p, nil
}

// ---------------------------------------------------------------- Injector --

// state is shared between an Injector and its Restrict views, so counters
// aggregate across a whole job regardless of which view injected.
type state struct {
	// seq is the per-(class, actor) operation counter: each actor draws a
	// deterministic decision sequence independent of other actors.
	seq [NumClasses][]atomic.Int64
	// counts tallies actual injections per class.
	counts [NumClasses]atomic.Int64
	// failedDev latches permanently failed devices.
	failedDev []atomic.Bool
}

// Injector answers "inject a fault into this operation?" queries. All
// methods are safe on a nil receiver (answering "no"), so call sites need no
// guards, and safe for concurrent use.
type Injector struct {
	plan Plan
	mask uint32 // bit per enabled class
	st   *state
}

// New builds an injector for a plan over `actors` independent decision
// streams (ranks and devices; indexes beyond the count are folded back in).
func New(plan Plan, actors int) *Injector {
	if actors < 1 {
		actors = 1
	}
	if plan.MaxDelayTicks <= 0 {
		plan.MaxDelayTicks = 3
	}
	if plan.StallWindow <= 0 {
		plan.StallWindow = 100 * time.Microsecond
	}
	st := &state{failedDev: make([]atomic.Bool, actors)}
	for c := range st.seq {
		st.seq[c] = make([]atomic.Int64, actors)
	}
	return &Injector{plan: plan, mask: (1 << NumClasses) - 1, st: st}
}

// Restrict returns a view of the injector limited to the given classes; the
// underlying counters and sequences are shared. The solve phase uses this to
// keep generic faults (delays, transfer failures, stalls) while excluding
// the announcement-protocol faults its one-shot RPCs cannot recover from.
func (in *Injector) Restrict(classes ...Class) *Injector {
	if in == nil {
		return nil
	}
	var mask uint32
	for _, c := range classes {
		mask |= 1 << c
	}
	return &Injector{plan: in.plan, mask: mask, st: in.st}
}

// Plan returns the plan the injector runs.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Count returns how many faults of a class have been injected so far.
func (in *Injector) Count(c Class) int64 {
	if in == nil {
		return 0
	}
	return in.st.counts[c].Load()
}

// Injected returns the per-class injection tallies (all zero on a nil
// injector) — the projection the metrics registry exports as
// sympack_faults_injected_total{class}.
func (in *Injector) Injected() [NumClasses]int64 {
	var out [NumClasses]int64
	if in == nil {
		return out
	}
	for c := Class(0); c < NumClasses; c++ {
		out[c] = in.st.counts[c].Load()
	}
	return out
}

// splitmix64 is the standard 64-bit finalizer used as a keyed hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the deterministic uniform sample for the actor's next
// operation of a class, or (0, false) when the class is inactive.
func (in *Injector) draw(c Class, actor int) (uint64, bool) {
	if in == nil || in.mask&(1<<c) == 0 || in.plan.Rate[c] <= 0 {
		return 0, false
	}
	seqs := in.st.seq[c]
	a := actor % len(seqs)
	if a < 0 {
		a = 0
	}
	seq := seqs[a].Add(1) - 1
	h := splitmix64(uint64(in.plan.Seed)<<8 ^ uint64(c+1)*0x51_7c_c1_b7_27_22_0a_95 ^ uint64(a)<<40 ^ uint64(seq))
	return h, true
}

// roll decides whether to inject a fault of class c into the actor's current
// operation, respecting the class cap. The second return value is the raw
// hash for shaping (e.g. delay length).
func (in *Injector) roll(c Class, actor int) (bool, uint64) {
	h, ok := in.draw(c, actor)
	if !ok {
		return false, 0
	}
	// Top 53 bits → uniform in [0,1).
	if float64(h>>11)/(1<<53) >= in.plan.Rate[c] {
		return false, 0
	}
	if lim := in.plan.Limit[c]; lim > 0 {
		if n := in.st.counts[c].Add(1); n > lim {
			in.st.counts[c].Add(-1)
			return false, 0
		}
		return true, h
	}
	in.st.counts[c].Add(1)
	return true, h
}

// DropSignal reports whether the rank's next outgoing RPC is dropped.
func (in *Injector) DropSignal(rank int) bool {
	hit, _ := in.roll(DropSignal, rank)
	return hit
}

// DupSignal reports whether the rank's next outgoing RPC is duplicated.
func (in *Injector) DupSignal(rank int) bool {
	hit, _ := in.roll(DupSignal, rank)
	return hit
}

// DelaySignalTicks returns how many progress ticks to defer the rank's next
// outgoing RPC (0 = deliver immediately).
func (in *Injector) DelaySignalTicks(rank int) int {
	hit, h := in.roll(DelaySignal, rank)
	if !hit {
		return 0
	}
	return 1 + int((h>>17)%uint64(in.plan.MaxDelayTicks))
}

// TransferFault reports whether the rank's next transfer attempt fails.
func (in *Injector) TransferFault(rank int) bool {
	hit, _ := in.roll(TransientTransfer, rank)
	return hit
}

// AllocFault reports whether the device's next allocation transiently fails.
func (in *Injector) AllocFault(dev int) bool {
	hit, _ := in.roll(TransientOOM, dev)
	return hit
}

// DeviceFailed reports whether the device is (now) permanently dead. Once it
// triggers for a device it stays true.
func (in *Injector) DeviceFailed(dev int) bool {
	if in == nil || in.mask&(1<<DeviceFail) == 0 {
		return false
	}
	a := dev % len(in.st.failedDev)
	if a < 0 {
		a = 0
	}
	if in.st.failedDev[a].Load() {
		return true
	}
	if hit, _ := in.roll(DeviceFail, dev); hit {
		in.st.failedDev[a].Store(true)
		return true
	}
	return false
}

// StallWindow returns a non-zero duration when the rank should freeze now.
func (in *Injector) StallWindow(rank int) time.Duration {
	hit, _ := in.roll(RankStall, rank)
	if !hit {
		return 0
	}
	return in.plan.StallWindow
}

// SlowClientDelay returns a non-zero hold duration when the request should
// be served as if its client were slow. The delay is shaped from the
// decision hash: 1–8 stall windows, so a chaos run sees a spread of client
// speeds rather than one fixed latency.
func (in *Injector) SlowClientDelay(req int) time.Duration {
	hit, h := in.roll(SlowClient, req)
	if !hit {
		return 0
	}
	return in.plan.StallWindow * time.Duration(1+(h>>23)%8)
}

// CanceledRequest reports whether the request's context should be canceled
// mid-flight.
func (in *Injector) CanceledRequest(req int) bool {
	hit, _ := in.roll(CanceledRequest, req)
	return hit
}

// CacheThrash reports whether the cache entries the request would hit
// should be force-evicted first.
func (in *Injector) CacheThrash(req int) bool {
	hit, _ := in.roll(CacheThrash, req)
	return hit
}

// Counts renders all non-zero injection counters, for reports.
func (in *Injector) Counts() string {
	if in == nil {
		return "none"
	}
	var parts []string
	for c := Class(0); c < NumClasses; c++ {
		if n := in.st.counts[c].Load(); n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, n))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.DropSignal(0) || in.DupSignal(1) || in.DelaySignalTicks(2) != 0 ||
		in.TransferFault(0) || in.AllocFault(0) || in.DeviceFailed(0) ||
		in.StallWindow(0) != 0 {
		t.Fatal("nil injector must inject nothing")
	}
	if in.Counts() != "none" {
		t.Fatalf("counts = %q", in.Counts())
	}
	if in.Restrict(DropSignal) != nil {
		t.Fatal("nil restrict must stay nil")
	}
}

func TestDeterministicSequences(t *testing.T) {
	plan := DefaultChaos(42)
	a := New(plan, 4)
	b := New(plan, 4)
	for i := 0; i < 2000; i++ {
		rank := i % 4
		if a.DropSignal(rank) != b.DropSignal(rank) {
			t.Fatalf("drop decision %d diverged", i)
		}
		if a.DelaySignalTicks(rank) != b.DelaySignalTicks(rank) {
			t.Fatalf("delay decision %d diverged", i)
		}
		if a.TransferFault(rank) != b.TransferFault(rank) {
			t.Fatalf("transfer decision %d diverged", i)
		}
	}
	if a.Count(DropSignal) != b.Count(DropSignal) {
		t.Fatalf("counts diverged: %d vs %d", a.Count(DropSignal), b.Count(DropSignal))
	}
	if a.Count(DropSignal) == 0 {
		t.Fatal("a 5% drop rate over 2000 draws should inject at least once")
	}
}

func TestSeedsDiffer(t *testing.T) {
	plan1, plan2 := DefaultChaos(1), DefaultChaos(2)
	a, b := New(plan1, 1), New(plan2, 1)
	same := true
	for i := 0; i < 500; i++ {
		if a.DropSignal(0) != b.DropSignal(0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical drop sequences")
	}
}

func TestRateOneAlwaysInjects(t *testing.T) {
	var p Plan
	p.Rate[TransientTransfer] = 1
	in := New(p, 2)
	for i := 0; i < 50; i++ {
		if !in.TransferFault(i % 2) {
			t.Fatalf("rate-1 transfer fault missed at %d", i)
		}
	}
	if in.Count(TransientTransfer) != 50 {
		t.Fatalf("count = %d", in.Count(TransientTransfer))
	}
}

func TestLimitCapsInjections(t *testing.T) {
	var p Plan
	p.Rate[DropSignal] = 1
	p.Limit[DropSignal] = 3
	in := New(p, 1)
	hits := 0
	for i := 0; i < 100; i++ {
		if in.DropSignal(0) {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("injected %d drops, want 3 (capped)", hits)
	}
}

func TestRestrictMasksClasses(t *testing.T) {
	var p Plan
	p.Rate[DropSignal] = 1
	p.Rate[RankStall] = 1
	full := New(p, 1)
	solve := full.Restrict(RankStall)
	if solve.DropSignal(0) {
		t.Fatal("restricted view must not inject masked classes")
	}
	if solve.StallWindow(0) == 0 {
		t.Fatal("restricted view must keep allowed classes")
	}
	// Counters are shared with the parent.
	if full.Count(RankStall) != 1 {
		t.Fatalf("shared stall count = %d", full.Count(RankStall))
	}
}

func TestDeviceFailLatches(t *testing.T) {
	var p Plan
	p.Rate[DeviceFail] = 1
	in := New(p, 2)
	if !in.DeviceFailed(0) {
		t.Fatal("rate-1 device failure must trigger")
	}
	for i := 0; i < 5; i++ {
		if !in.DeviceFailed(0) {
			t.Fatal("device failure must latch")
		}
	}
	if got := in.Count(DeviceFail); got != 1 {
		t.Fatalf("latched failure counted %d times", got)
	}
}

func TestDelayTicksBounded(t *testing.T) {
	var p Plan
	p.Rate[DelaySignal] = 1
	p.MaxDelayTicks = 4
	in := New(p, 1)
	for i := 0; i < 200; i++ {
		d := in.DelaySignalTicks(0)
		if d < 1 || d > 4 {
			t.Fatalf("delay %d out of [1,4]", d)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("drop=0.02, dup=0.5/10 ,transfer=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Rate[DropSignal] != 0.02 || p.Rate[DupSignal] != 0.5 ||
		p.Limit[DupSignal] != 10 || p.Rate[TransientTransfer] != 1 {
		t.Fatalf("parsed %+v", p)
	}
	back, err := Parse(p.String(), 7)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip: %+v vs %+v", back, p)
	}
}

func TestParseAll(t *testing.T) {
	p, err := Parse("all=0.1", 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		want := 0.1
		if c == DeviceFail || IsServerClass(c) {
			want = 0 // devfail and the server classes are opt-in only
		}
		if p.Rate[c] != want {
			t.Fatalf("class %v rate = %g, want %g", c, p.Rate[c], want)
		}
	}
}

func TestParseServerClasses(t *testing.T) {
	p, err := Parse("slowclient=0.2,cancelreq=0.1/5,cachethrash=1", 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rate[SlowClient] != 0.2 || p.Rate[CanceledRequest] != 0.1 ||
		p.Limit[CanceledRequest] != 5 || p.Rate[CacheThrash] != 1 {
		t.Fatalf("parsed %+v", p)
	}
	back, err := Parse(p.String(), 9)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip: %+v vs %+v", back, p)
	}
}

func TestServerInjections(t *testing.T) {
	var p Plan
	p.Rate[SlowClient] = 1
	p.Rate[CanceledRequest] = 1
	p.Rate[CacheThrash] = 1
	in := New(p, 1)
	for req := 0; req < 100; req++ {
		d := in.SlowClientDelay(req)
		if d < in.plan.StallWindow || d > 8*in.plan.StallWindow {
			t.Fatalf("slow-client delay %v outside [1,8] stall windows", d)
		}
		if !in.CanceledRequest(req) || !in.CacheThrash(req) {
			t.Fatalf("rate-1 server fault missed at request %d", req)
		}
	}
	if in.Count(SlowClient) != 100 || in.Count(CanceledRequest) != 100 || in.Count(CacheThrash) != 100 {
		t.Fatalf("server counts = %d/%d/%d", in.Count(SlowClient), in.Count(CanceledRequest), in.Count(CacheThrash))
	}
	// A nil injector answers "no fault" for the server classes too.
	var nilIn *Injector
	if nilIn.SlowClientDelay(0) != 0 || nilIn.CanceledRequest(0) || nilIn.CacheThrash(0) {
		t.Fatal("nil injector must not inject server faults")
	}
}

func TestServerChaosPlan(t *testing.T) {
	p := ServerChaos(11)
	if !p.Active() {
		t.Fatal("server chaos must be active")
	}
	for c := Class(0); c < NumClasses; c++ {
		if p.Rate[c] > 0 && !IsServerClass(c) {
			t.Fatalf("server chaos enables runtime class %v", c)
		}
	}
	back, err := Parse(p.String(), 11)
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if back != p {
		t.Fatalf("round trip: %+v vs %+v", back, p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{"nope=0.1", "drop", "drop=2", "drop=-1", "drop=0.1/x"} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestResolve pins the flag-pair rules the three CLIs share.
func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		name            string
		spec            string
		chaos, specSeed int64
		def             func(int64) Plan
		want            *Plan
	}{
		{"neither flag", "", 0, 9, DefaultChaos, nil},
		{"chaos alone: default plan", "", 5, 9, DefaultChaos, ptr(DefaultChaos(5))},
		{"chaos alone: server plan", "", 5, 9, ServerChaos, ptr(ServerChaos(5))},
		{"spec alone: seeded by specSeed", "drop=0.4", 0, 9, DefaultChaos, ptr(Plan{Seed: 9, Rate: rate(DropSignal, 0.4)})},
		{"spec wins, seeded by chaos", "drop=0.4", 5, 9, DefaultChaos, ptr(Plan{Seed: 5, Rate: rate(DropSignal, 0.4)})},
	} {
		got, err := Resolve(tc.spec, tc.chaos, tc.specSeed, tc.def)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if (got == nil) != (tc.want == nil) || (got != nil && *got != *tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if p, err := Resolve("nosuch=1", 0, 1, DefaultChaos); err == nil || p != nil {
		t.Errorf("malformed spec: got %v, %v; want nil and an error", p, err)
	}
}

func ptr(p Plan) *Plan { return &p }

func rate(c Class, r float64) (out [NumClasses]float64) {
	out[c] = r
	return out
}

func TestPlanActiveAndString(t *testing.T) {
	var p Plan
	if p.Active() || (&p).String() != "none" {
		t.Fatal("zero plan must be inactive")
	}
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Fatal("nil plan must be inactive")
	}
	c := DefaultChaos(3)
	if !c.Active() {
		t.Fatal("default chaos must be active")
	}
	if c.String() == "none" {
		t.Fatal("active plan must render its classes")
	}
}

func TestErrTransientWrapping(t *testing.T) {
	err := fmt.Errorf("layer: %w", ErrTransient)
	if !errors.Is(err, ErrTransient) {
		t.Fatal("wrapping must preserve transience")
	}
}

func TestStallWindowDefault(t *testing.T) {
	var p Plan
	p.Rate[RankStall] = 1
	in := New(p, 1)
	if w := in.StallWindow(0); w != 100*time.Microsecond {
		t.Fatalf("default stall window = %v", w)
	}
}

package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("saturated-up counter = %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("saturated-down counter = %d, want 0", c)
	}
}

func TestCounterHysteresis(t *testing.T) {
	// From strongly-taken, one not-taken outcome must not flip the prediction.
	c := counter(3)
	c = c.update(false)
	if !c.taken() {
		t.Error("one not-taken from strong-taken should still predict taken")
	}
	c = c.update(false)
	if c.taken() {
		t.Error("two not-taken should flip the prediction")
	}
}

func TestLoopBranchLearnsQuickly(t *testing.T) {
	p := New()
	pc, target := uint64(0x100), uint64(0x40)
	// A loop back-edge: taken 20 times. First resolutions mispredict, then
	// the predictor locks on.
	mis := 0
	for i := 0; i < 20; i++ {
		if p.ResolveBranch(pc, true, target) {
			mis++
		}
	}
	if mis > 2 {
		t.Errorf("loop branch mispredicted %d times, want <=2", mis)
	}
	// Final iteration falls through: exactly one more misprediction.
	if !p.ResolveBranch(pc, false, target) {
		t.Error("loop exit should mispredict once")
	}
}

func TestBranchTargetChangeDetected(t *testing.T) {
	p := New()
	pc := uint64(0x200)
	p.ResolveBranch(pc, true, 0x40)
	p.ResolveBranch(pc, true, 0x40)
	// Same direction, new target: still a misprediction (BTB target stale).
	if !p.ResolveBranch(pc, true, 0x80) {
		t.Error("target change must mispredict")
	}
}

func TestJumpFirstSeenMispredicts(t *testing.T) {
	p := New()
	if !p.ResolveJump(0x300, 0x1000) {
		t.Error("first jump sighting should mispredict")
	}
	if p.ResolveJump(0x300, 0x1000) {
		t.Error("known jump should hit")
	}
}

func TestCallReturnPairs(t *testing.T) {
	p := New()
	p.Call(0x100, 0x2000)
	p.Call(0x2010, 0x3000)
	if p.Return(0x2014) {
		t.Error("matching return should predict correctly")
	}
	if p.Return(0x104) {
		t.Error("matching outer return should predict correctly")
	}
	if !p.Return(0x104) {
		t.Error("return with empty stack must mispredict")
	}
}

func TestReturnMismatchedAddress(t *testing.T) {
	p := New()
	p.Call(0x100, 0x2000)
	if !p.Return(0xdead) {
		t.Error("wrong return address must mispredict")
	}
}

func TestRASOverflowKeepsNewest(t *testing.T) {
	p := New()
	for i := 0; i < RASDepth+2; i++ {
		p.Call(uint64(0x1000+i*16), 0x9000)
	}
	// The most recent RASDepth calls should return correctly.
	for i := RASDepth + 1; i >= 2; i-- {
		if p.Return(uint64(0x1000+i*16) + 4) {
			t.Errorf("return %d should hit", i)
		}
	}
	// The two oldest were pushed out.
	if !p.Return(0x1000 + 1*16 + 4) {
		t.Error("overflowed entry should mispredict")
	}
}

func TestBTBAliasing(t *testing.T) {
	p := New()
	// Two branches mapping to the same BTB set (64 entries, pc>>2 % 64):
	// pcs differing by 64*4 bytes alias.
	a, b := uint64(0x100), uint64(0x100+BTBEntries*4)
	p.ResolveBranch(a, true, 0x40)
	p.ResolveBranch(a, true, 0x40)
	p.ResolveBranch(b, true, 0x80) // evicts a
	if !p.ResolveBranch(a, true, 0x40) {
		t.Error("aliased entry should have been evicted, causing a miss")
	}
}

func TestMissRateAccounting(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.ResolveBranch(0x100, true, 0x40)
	}
	// Only the first resolution misses: an unknown branch predicts
	// not-taken, and the entry it installs predicts the repeats.
	if p.Mispredictions() != 1 {
		t.Errorf("mispredictions = %d over 10 resolutions, want 1", p.Mispredictions())
	}
	if New().Mispredictions() != 0 {
		t.Error("empty predictor should count no mispredictions")
	}
}

func TestPropertyBiasedBranchesPredictWell(t *testing.T) {
	// For strongly biased branches, the 2-bit counter must achieve a low
	// steady-state miss rate regardless of the bias direction.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := New()
		biasTaken := r.Intn(2) == 0
		pc := uint64(r.Intn(1024)) * 4
		target := uint64(0x40)
		mis := 0
		const n = 400
		for i := 0; i < n; i++ {
			taken := biasTaken
			if r.Intn(100) < 5 { // 5% contrarian outcomes
				taken = !taken
			}
			if p.ResolveBranch(pc, taken, target) {
				mis++
			}
		}
		// 5% noise can cost at most ~2 mispredictions each in a 2-bit
		// scheme; allow generous slack.
		return float64(mis)/n < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMispredictionsNeverExceedLookups(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := New()
		const resolutions = 300
		for i := 0; i < resolutions; i++ {
			switch r.Intn(4) {
			case 0:
				p.ResolveBranch(uint64(r.Intn(512))*4, r.Intn(2) == 0, uint64(r.Intn(512))*4)
			case 1:
				p.ResolveJump(uint64(r.Intn(512))*4, uint64(r.Intn(512))*4)
			case 2:
				p.Call(uint64(r.Intn(512))*4, uint64(r.Intn(512))*4)
			case 3:
				p.Return(uint64(r.Intn(512)) * 4)
			}
		}
		return p.Mispredictions() <= resolutions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRestoreRejectsMalformedState checks that a return-stack top outside
// [0, RASDepth] or a BTB counter above 3 is an error that leaves the
// predictor unchanged, and that a real snapshot restores.
func TestRestoreRejectsMalformedState(t *testing.T) {
	p := New()
	p.Call(0x100, 0x800)
	p.ResolveBranch(0x104, true, 0x40)
	good := p.Snapshot()
	for name, edit := range map[string]func(*State){
		"negative top":      func(st *State) { st.Top = -1 },
		"top past depth":    func(st *State) { st.Top = RASDepth + 1 },
		"counter above 3":   func(st *State) { st.BTB[7].Ctr = 4 },
		"counter saturated": func(st *State) { st.BTB[0].Ctr = 255 },
	} {
		st := good
		edit(&st)
		q := New()
		if err := q.Restore(st); err == nil {
			t.Errorf("%s: Restore accepted the state", name)
		}
		if q.Snapshot() != New().Snapshot() {
			t.Errorf("%s: a rejected Restore changed the predictor", name)
		}
	}
	q := New()
	if err := q.Restore(good); err != nil {
		t.Fatalf("a snapshot restores with %v", err)
	}
	if q.Snapshot() != good {
		t.Error("restored predictor snapshots differently")
	}
}

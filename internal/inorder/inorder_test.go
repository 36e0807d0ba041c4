package inorder

import (
	"context"
	"testing"

	"fxa/internal/asm"
	"fxa/internal/config"
	"fxa/internal/emu"
	"fxa/internal/engine"
)

// run simulates src to completion on m, checks the committed count
// against the functional emulator, and returns the core (for its
// diagnostics) and its result.
func run(t *testing.T, m config.Model, src string) (*Core, engine.Result) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	golden := emu.New(p)
	want, err := golden.Run(5_000_000)
	if err != nil {
		t.Fatalf("emulate: %v", err)
	}
	co, err := New(m, emu.NewStream(emu.New(p), 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Committed != want {
		t.Fatalf("%s: committed %d, emulator executed %d", m.Name, res.Counters.Committed, want)
	}
	return co, res
}

func runLittle(t *testing.T, src string) engine.Result {
	t.Helper()
	_, res := run(t, config.Little(), src)
	return res
}

const ilpKernel = `
	li   r10, 3000
loop:	addi r1, r1, 1
	addi r2, r2, 2
	addi r3, r3, 3
	addi r4, r4, 4
	xor  r5, r1, r2
	xor  r6, r3, r4
	addi r10, r10, -1
	bgt  r10, loop
	halt
`

func TestLittleRunsAndIsSlowishButDualIssue(t *testing.T) {
	res := runLittle(t, ilpKernel)
	ipc := res.Counters.IPC()
	// Independent 1-cycle ops: a dual-issue in-order core should approach
	// its fetch/issue width of 2 but never exceed it.
	if ipc < 1.2 || ipc > 2.0 {
		t.Errorf("LITTLE IPC = %.2f, want within (1.2, 2.0]", ipc)
	}
}

func TestLittleStallsOnSerialChain(t *testing.T) {
	res := runLittle(t, `
	li   r9, 2000
loop:	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r1, r1, 1
	addi r9, r9, -1
	bgt  r9, loop
	halt
	`)
	ipc := res.Counters.IPC()
	// The r1 chain serializes 4 of the 6 body instructions.
	if ipc > 1.6 {
		t.Errorf("serial chain IPC = %.2f, too high for in-order", ipc)
	}
	if ipc < 0.8 {
		t.Errorf("serial chain IPC = %.2f, too low", ipc)
	}
}

func TestLittleLoadUseStalls(t *testing.T) {
	fast := runLittle(t, ilpKernel)
	slow := runLittle(t, `
	li   r9, 2000
	lda  r8, buf
loop:	ld   r1, 0(r8)     ; load-use chain, L1 hit = 2 cycles
	add  r2, r1, r1
	ld   r3, 8(r8)
	add  r4, r3, r3
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 64
	`)
	if slow.Counters.IPC() >= fast.Counters.IPC() {
		t.Errorf("load-use loop IPC %.2f should be below ALU loop IPC %.2f",
			slow.Counters.IPC(), fast.Counters.IPC())
	}
}

func TestLittleMispredictPenalty(t *testing.T) {
	mk := func(fill string) string {
		return `
	li   r1, 88172645
	li   r9, 4096
	lda  r8, table
init:	slli r2, r1, 13
	xor  r1, r1, r2
	srli r2, r1, 7
	xor  r1, r1, r2
	slli r2, r1, 17
	xor  r1, r1, r2
	srli r4, r1, 13
	andi r4, r4, ` + fill + `
	st   r4, 0(r8)
	addi r8, r8, 8
	addi r9, r9, -1
	bgt  r9, init
	li   r9, 4096
	lda  r8, table
loop:	ld   r4, 0(r8)
	addi r8, r8, 8
	addi r20, r20, 1
	addi r21, r21, 2
	beq  r4, skip
skip:	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x40000
table:	.space 32768
`
	}
	rand := runLittle(t, mk("1"))
	pred := runLittle(t, mk("0"))
	extra := rand.Counters.BranchMispredicts - pred.Counters.BranchMispredicts
	if extra < 1000 {
		t.Fatalf("expected many extra mispredicts, got %d", extra)
	}
	penalty := float64(rand.Counters.Cycles-pred.Counters.Cycles) / float64(extra)
	// Table I: 8 cycles for LITTLE.
	if penalty < 6 || penalty > 11 {
		t.Errorf("LITTLE measured penalty = %.1f cycles/mispredict, want ~8", penalty)
	}
}

func TestLittleRejectsOoOModel(t *testing.T) {
	if _, err := New(config.Big(), nil); err == nil {
		t.Error("inorder.New must reject out-of-order models")
	}
}

// TestKindChecked pins construction: New accepts both in-order kinds,
// and Validate bounds the DUAL issue width at the pairing policy's two
// slots.
func TestKindChecked(t *testing.T) {
	for _, m := range []config.Model{config.Little(), config.Dual(), config.DualSI()} {
		if _, err := New(m, nil); err != nil {
			t.Errorf("inorder.New rejected %s: %v", m.Name, err)
		}
	}
	m := config.Dual()
	m.IssueWidth = 3
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted IssueWidth 3 on a dual-issue core")
	}
}

func TestLittleFUCounts(t *testing.T) {
	// One mem FU: back-to-back independent loads cannot dual-issue.
	res := runLittle(t, `
	li   r9, 2000
	lda  r8, buf
loop:	ld   r1, 0(r8)
	ld   r2, 8(r8)
	ld   r3, 16(r8)
	ld   r4, 24(r8)
	addi r9, r9, -1
	bgt  r9, loop
	halt
	.org 0x20000
buf:	.space 64
	`)
	// 4 loads on 1 port -> at least 4 cycles per iteration of 6 insts.
	if ipc := res.Counters.IPC(); ipc > 1.5 {
		t.Errorf("IPC %.2f too high for single memory port", ipc)
	}
}

// mixedSrc interleaves an integer chain with an independent FP chain, so
// every integer instruction has an FP partner available for the second
// slot.
const mixedSrc = `
	li r21, 2000
	li r1, 1
	li r29, 0x3a000
	ldf f1, 0(r29)
	ldf f2, 8(r29)
loop:	add r2, r2, r1
	fadd f3, f1, f2
	add r4, r4, r1
	fadd f5, f1, f2
	addi r21, r21, -1
	bgt r21, loop
	halt
	.org 0x3a000
	.double 1.5
	.double 2.25
`

// intSrc is a pure integer chain: the cross-domain rule never lets the
// second slot fill, so DUAL behaves exactly like its single-issue
// baseline.
const intSrc = `
	li r21, 2000
	li r1, 1
loop:	add r2, r2, r1
	add r3, r3, r1
	add r4, r4, r1
	add r5, r5, r1
	addi r21, r21, -1
	bgt r21, loop
	halt
`

// TestPairingSpeedsUpMixedCode pins the policy's reason to exist: on
// interleaved INT/FP code the dual-issue core must beat its single-issue
// baseline, and the win must come from paired cycles.
func TestPairingSpeedsUpMixedCode(t *testing.T) {
	co, dual := run(t, config.Dual(), mixedSrc)
	_, si := run(t, config.DualSI(), mixedSrc)
	if dual.Counters.Committed != si.Counters.Committed {
		t.Fatalf("committed drift: DUAL %d, DUAL-SI %d", dual.Counters.Committed, si.Counters.Committed)
	}
	if dual.Counters.Cycles >= si.Counters.Cycles {
		t.Errorf("mixed INT/FP code: DUAL took %d cycles, single-issue %d — pairing bought nothing",
			dual.Counters.Cycles, si.Counters.Cycles)
	}
	if p := co.Pairing(); p.PairedCycles == 0 {
		t.Errorf("no paired cycles on interleaved INT/FP code: %+v", p)
	}
}

// TestPairingRejectsSameDomain pins the constraint side: a pure integer
// stream cannot use the second slot, DomainBlocked counts the rejections,
// and the cycle count matches the single-issue baseline exactly.
func TestPairingRejectsSameDomain(t *testing.T) {
	co, dual := run(t, config.Dual(), intSrc)
	_, si := run(t, config.DualSI(), intSrc)
	if dual.Counters.Cycles != si.Counters.Cycles {
		t.Errorf("pure integer code: DUAL %d cycles, DUAL-SI %d — second slot must be unusable",
			dual.Counters.Cycles, si.Counters.Cycles)
	}
	p := co.Pairing()
	if p.PairedCycles != 0 {
		t.Errorf("paired %d cycles on a single-domain stream", p.PairedCycles)
	}
	if p.DomainBlocked == 0 {
		t.Error("no DomainBlocked rejections recorded on a single-domain stream")
	}
}

// TestLittlePairsAnyDomain pins that the cross-domain policy stays off
// LITTLE: on the same pure integer stream LITTLE never rejects a
// same-domain second slot and does pair.
func TestLittlePairsAnyDomain(t *testing.T) {
	co, _ := run(t, config.Little(), intSrc)
	p := co.Pairing()
	if p.DomainBlocked != 0 {
		t.Errorf("LITTLE recorded %d DomainBlocked rejections; the pairing policy leaked", p.DomainBlocked)
	}
	if p.PairedCycles == 0 {
		t.Errorf("LITTLE paired no cycles on an independent integer stream: %+v", p)
	}
}

// TestSkipStatsAdvance sanity-checks the shared skipper wiring: a
// memory-bound stream with a single MSHR must actually skip idle spans.
func TestSkipStatsAdvance(t *testing.T) {
	src := `
	li r21, 200
	li r1, 0x100000
	li r2, 4096
loop:	ld r3, 0(r1)
	add r1, r1, r2
	addi r21, r21, -1
	bgt r21, loop
	halt
	`
	m := config.Dual()
	m.MSHRs = 1
	prog := asm.MustAssemble(src)
	co, err := New(m, emu.NewStream(emu.New(prog), 0))
	if err != nil {
		t.Fatal(err)
	}
	co.SetIdleSkip(true)
	if _, err := co.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cycles, spans := co.SkipStats(); cycles == 0 || spans == 0 {
		t.Errorf("no idle cycles skipped on a miss-serialized stream (cycles=%d spans=%d)", cycles, spans)
	}
}

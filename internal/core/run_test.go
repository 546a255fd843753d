package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/soc"
)

// TestFlashPastProgramPinned runs a program that loads from the flash
// 64 KiB past its own end, where nothing is programmed, folds the loaded
// word into its signature and jumps there. The flash allocates only the
// pages its programs are loaded into, so these loads and the fetch at the
// jump target read a page no program reaches; the pinned result is the
// one a flash backing all 1 MiB, unprogrammed bytes zero, gives.
func TestFlashPastProgramPinned(t *testing.T) {
	job := &CoreJob{
		Strategy: Plain{},
		CodeBase: soc.CodeLow,
		Epilogue: func(b *asm.Builder) {
			b.Li(isa.RegSig, 0x5a5a_0001)
			b.LiAddr(1, "end")
			b.Li(2, 0x10000)
			b.R(isa.OpADD, 1, 1, 2)
			b.Load(isa.OpLW, 3, 1, 0)
			b.Load(isa.OpLW, 4, 1, 60)
			b.R(isa.OpADD, isa.RegSig, isa.RegSig, 3)
			b.R(isa.OpXOR, isa.RegSig, isa.RegSig, 4)
			b.Emit(isa.Inst{Op: isa.OpJR, Rs1: 1})
			b.Label("end")
		},
	}
	got, _, err := RunSingle(soc.DefaultConfig(), 0, job, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	// The loads read zeros, so the signature keeps its seed, and the
	// zero word fetched at the jump target wedges the core.
	want := RunResult{Signature: 0x5a5a0001, Wedged: true, Cycles: 64,
		IFStall: 27, MemStall: 28, Issued2: 3, Instret: 11}
	if *got != want {
		t.Errorf("run ended %+v\nwant         %+v", *got, want)
	}
}

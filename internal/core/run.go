package core

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// CoreJob describes what one core runs: one routine (Routine) or a
// sequence (Routines), each emitted by Strategy, then an optional epilogue
// (e.g. a scheduler barrier) and a HALT.
type CoreJob struct {
	Routine  *sbst.Routine
	Routines []*sbst.Routine // takes precedence over Routine when non-nil
	Strategy Strategy
	CodeBase uint32 // flash address of the program
	AlignPad uint32 // extra bytes before the body (code-alignment scenario)
	Epilogue func(b *asm.Builder)
}

// routines returns the job's routine list.
func (j *CoreJob) routines() []*sbst.Routine {
	if j.Routines != nil {
		return j.Routines
	}
	if j.Routine == nil {
		return nil
	}
	return []*sbst.Routine{j.Routine}
}

// RunResult captures one core's outcome.
type RunResult struct {
	Signature uint32
	OK        bool // halted cleanly: no wedge, no timeout
	Wedged    bool
	Cycles    int64 // core cycles until HALT drained
	IFStall   uint64
	MemStall  uint64
	HazStall  uint64
	Issued2   uint64
	Instret   uint64
}

// RunJobs assembles and loads each job, starts the corresponding cores and
// runs the SoC to completion (or maxCycles). cfg's per-core Active flags
// must match the non-nil jobs. The returned SoC allows callers to inspect
// bus statistics and cache state.
func RunJobs(cfg soc.Config, jobs [soc.NumCores]*CoreJob, maxCycles int64) ([soc.NumCores]*RunResult, *soc.SoC, error) {
	return RunJobsSetup(cfg, jobs, maxCycles, nil)
}

// RunJobsSetup additionally invokes setup on the assembled SoC before the
// cores start — the hook Record uses to attach the bus-traffic recorder
// and the Figure 1 reproduction uses to attach a pipeline tracer.
func RunJobsSetup(cfg soc.Config, jobs [soc.NumCores]*CoreJob, maxCycles int64, setup func(*soc.SoC)) ([soc.NumCores]*RunResult, *soc.SoC, error) {
	results, s, _, err := runJobs(cfg, jobs, maxCycles, setup)
	return results, s, err
}

// runJobs is RunJobsSetup that also returns the programs it loaded, which
// it assembles through one builder, so Record fingerprints the program its
// golden run ran without assembling it again.
func runJobs(cfg soc.Config, jobs [soc.NumCores]*CoreJob, maxCycles int64, setup func(*soc.SoC)) ([soc.NumCores]*RunResult, *soc.SoC, [soc.NumCores]*asm.Program, error) {
	var results [soc.NumCores]*RunResult
	s, progs, err := loadJobs(cfg, jobs, setup)
	if err != nil {
		return results, nil, progs, err
	}
	res := s.Run(maxCycles)
	for id, job := range jobs {
		if job == nil {
			continue
		}
		u := s.Cores[id]
		r := coreResult(u, u.Core.Done() && !res.TimedOut)
		results[id] = &r
	}
	return results, s, progs, nil
}

// loadJobs assembles each job through one builder and loads it, with its
// routines' data, into a fresh SoC of cfg whose active cores are the
// jobs', calling setup on the SoC first; it returns the SoC with the jobs'
// cores started, and their programs.
func loadJobs(cfg soc.Config, jobs [soc.NumCores]*CoreJob, setup func(*soc.SoC)) (*soc.SoC, [soc.NumCores]*asm.Program, error) {
	var progs [soc.NumCores]*asm.Program
	b := asm.NewBuilder()
	for id, job := range jobs {
		if job == nil {
			continue
		}
		prog, err := assemble(b, job)
		if err != nil {
			return nil, progs, fmt.Errorf("core%d: %w", id, err)
		}
		progs[id] = prog
	}
	for id, job := range jobs {
		cfg.Cores[id].Active = job != nil
	}
	s := soc.New(cfg)
	if setup != nil {
		setup(s)
	}
	for id, job := range jobs {
		if job == nil {
			continue
		}
		if err := s.Load(progs[id]); err != nil {
			return nil, progs, fmt.Errorf("core%d: %w", id, err)
		}
		for _, r := range job.routines() {
			loadRoutineData(s, r)
		}
	}
	for id, job := range jobs {
		if job != nil {
			s.Start(id, progs[id].Base)
		}
	}
	return s, progs, nil
}

// coreResult extracts core unit u's RunResult at the end of a run; done
// reports that the run drained within its cycle budget.
func coreResult(u *soc.CoreUnit, done bool) RunResult {
	return RunResult{
		Signature: u.Core.Reg(isa.RegSig),
		OK:        done && !u.Core.Wedged(),
		Wedged:    u.Core.Wedged(),
		Cycles:    u.Core.Cycle(),
		IFStall:   u.Core.Counter(fault.CntIFStall),
		MemStall:  u.Core.Counter(fault.CntMemStall),
		HazStall:  u.Core.Counter(fault.CntHazStall),
		Issued2:   u.Core.Counter(fault.CntIssued2),
		Instret:   u.Core.Counter(fault.CntInstret),
	}
}

// RunSingle is the single-job convenience form: the job runs on core id
// with the given SoC configuration.
func RunSingle(cfg soc.Config, id int, job *CoreJob, maxCycles int64) (*RunResult, *soc.SoC, error) {
	var jobs [soc.NumCores]*CoreJob
	jobs[id] = job
	results, s, err := RunJobs(cfg, jobs, maxCycles)
	if err != nil {
		return nil, nil, err
	}
	return results[id], s, nil
}

func buildProgram(job *CoreJob) (*asm.Program, error) { return assemble(asm.NewBuilder(), job) }

// assemble emits job's program into b, emptied first, and assembles it.
// A staged strategy's parts are assembled in b before the program, which
// then reuses the space they grew.
func assemble(b *asm.Builder, job *CoreJob) (*asm.Program, error) {
	routines := job.routines()
	st, isStaged := job.Strategy.(staged)
	var emits []func(*asm.Builder)
	if isStaged {
		for _, r := range routines {
			emit, err := st.stage(b, r)
			if err != nil {
				return nil, err
			}
			emits = append(emits, emit)
		}
	}
	b.Reset()
	for pad := uint32(0); pad < job.AlignPad; pad += isa.InstBytes {
		b.Nop()
	}
	for i, r := range routines {
		if isStaged {
			emits[i](b)
		} else if err := job.Strategy.Emit(b, r); err != nil {
			return nil, err
		}
	}
	if job.Epilogue != nil {
		job.Epilogue(b)
	}
	b.Halt()
	return b.Assemble(job.CodeBase)
}

// loadRoutineData writes the routine's pattern table into system SRAM (the
// loader's job on the real device).
func loadRoutineData(s *soc.SoC, r *sbst.Routine) {
	off := r.DataBase - mem.SRAMBase
	for i, w := range r.DataWords {
		mem.WriteWord(s.SRAM, off+uint32(i)*4, w)
	}
}

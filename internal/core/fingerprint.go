package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/sbst"
	"repro/internal/soc"
)

// CampaignFingerprint content-addresses the campaign as a pure function:
// the assembled program image prog (job's, as Campaign assembles it once)
// and the routine data tables, the ordered fault universe, and the
// execution environment (core, budget, SoC configuration with replayed
// traffic). Two campaigns with equal fingerprints compute identical
// reports, which is what makes journaled verdicts transferable across
// process restarts.
//
// Journals and service stores are filed under these keys, so the hashed
// bytes are fixed: fmt's "base %08x:" and "%08x" per program word,
// "|data %08x:" and "%08x" per routine data word, and "core %d budget %d
// cfg %+v", which the encoders below write without fmt
// (TestKeyEncodersMatchFmt, TestKeyEncodedTypes).
func CampaignFingerprint(prog *asm.Program, cfg soc.Config, id int, job *CoreJob, sites []fault.Site, budget int64) fault.JournalHeader {
	for k := 0; k < soc.NumCores; k++ {
		// Normalise exactly like newCapture: only core id is
		// active and planes are per-run state, not environment.
		cfg.Cores[k].Active = k == id
		cfg.Cores[k].Plane = nil
	}
	ph, eh := fnv.New64a(), fnv.New64a()
	w := bufio.NewWriterSize(ph, 4096)
	writeProgram(w, prog)
	for _, r := range job.routines() {
		writeData(w, r)
	}
	w.Flush()
	w.Reset(eh)
	writeEnv(w, id, budget, cfg)
	w.Flush()
	return fault.JournalHeader{
		Program:  fmt.Sprintf("%016x", ph.Sum64()),
		Universe: fault.HashSites(sites),
		Env:      fmt.Sprintf("%016x", eh.Sum64()),
		Sites:    len(sites),
	}
}

// writeProgram writes fmt's "base %08x:" of p's base, then "%08x" of each
// of its words.
func writeProgram(w *bufio.Writer, p *asm.Program) {
	w.Write(append(appendHex8(append(w.AvailableBuffer(), "base "...), p.Base), ':'))
	writeWords(w, p.Words)
}

// writeData writes fmt's "|data %08x:" of r's data base, then "%08x" of
// each of its data words.
func writeData(w *bufio.Writer, r *sbst.Routine) {
	w.Write(append(appendHex8(append(w.AvailableBuffer(), "|data "...), r.DataBase), ':'))
	writeWords(w, r.DataWords)
}

func writeWords(w *bufio.Writer, ws []uint32) {
	for _, v := range ws {
		w.Write(appendHex8(w.AvailableBuffer(), v))
	}
}

// appendHex8 appends fmt's "%08x" of v: eight lower-case hex digits.
func appendHex8(b []byte, v uint32) []byte {
	const hex = "0123456789abcdef"
	return append(b, hex[v>>28], hex[v>>24&15], hex[v>>20&15], hex[v>>16&15],
		hex[v>>12&15], hex[v>>8&15], hex[v>>4&15], hex[v&15])
}

// writeEnv writes fmt's "core %d budget %d cfg %+v" of a normalised
// configuration, whose cores carry no fault plane: field by field as %+v
// prints them, in declaration order.
func writeEnv(w *bufio.Writer, id int, budget int64, cfg soc.Config) {
	b := strconv.AppendInt(append(w.AvailableBuffer(), "core "...), int64(id), 10)
	b = strconv.AppendInt(append(b, " budget "...), budget, 10)
	b = strconv.AppendUint(append(b, " cfg {Arbitration:"...), uint64(cfg.Arbitration), 10)
	b = append(b, " FlashBanks:["...)
	for i, l := range cfg.FlashBanks {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	b = strconv.AppendInt(append(b, "] SRAMLatency:"...), int64(cfg.SRAMLatency), 10)
	b = append(b, " Cores:["...)
	for i, c := range cfg.Cores {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(append(b, "{CPU:{CoreID:"...), int64(c.CPU.CoreID), 10)
		b = strconv.AppendBool(append(b, " Has64:"...), c.CPU.Has64)
		b = strconv.AppendBool(append(b, " ICU:{SharedCauseBits:"...), c.CPU.ICU.SharedCauseBits)
		b = strconv.AppendBool(append(b, "}} Active:"...), c.Active)
		b = strconv.AppendBool(append(b, " CachesOn:"...), c.CachesOn)
		b = strconv.AppendBool(append(b, " WriteAlloc:"...), c.WriteAlloc)
		b = strconv.AppendInt(append(b, " Plane:<nil> StartDelay:"...), int64(c.StartDelay), 10)
		b = append(b, '}')
	}
	w.Write(append(b, "] Replay:["...))
	for i, trace := range cfg.Replay {
		if i > 0 {
			w.WriteByte(' ')
		}
		w.WriteByte('[')
		for j, e := range trace {
			b := w.AvailableBuffer()
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(append(b, "{Cycle:"...), e.Cycle, 10)
			b = strconv.AppendInt(append(b, " Master:"...), int64(e.Master), 10)
			b = strconv.AppendUint(append(b, " Addr:"...), uint64(e.Addr), 10)
			b = strconv.AppendBool(append(b, " Write:"...), e.Write)
			b = strconv.AppendInt(append(b, " N:"...), int64(e.N), 10)
			w.Write(append(b, '}'))
		}
		w.WriteByte(']')
	}
	w.WriteString("]}")
}

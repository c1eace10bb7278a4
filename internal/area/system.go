package area

import (
	"fmt"

	"repro/internal/aes"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/hashtree"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/soc"
	"repro/internal/trace"
)

// Model entries for components our richer platform has beyond the paper's
// five-interface case study. These are uncalibrated engineering estimates
// used only for platform-to-platform comparisons (distributed vs
// centralized, rule sweeps), never for the Table I reproduction itself.

// MailboxIP is the inter-core FIFO.
func MailboxIP() Resources { return Resources{140, 180, 160, 0} }

// SEMModule models the centralized baseline's Security Enforcement
// Module: a Security Builder over the global rule table plus request
// queue and protocol registers.
func SEMModule(rules int) Resources {
	return SecurityBuilder(rules).Add(Resources{Regs: 320, LUTs: 540, Pairs: 410, BRAM: 0})
}

// SEIAdapter is one IP's Security Enforcement Interface: protocol
// sequencer only — the actual checking lives in the SEM.
func SEIAdapter() Resources { return Resources{96, 210, 130, 0} }

// FromSystem builds the bill of materials of an actual constructed
// platform, reading rule counts and integrity state from the live
// firewalls.
func FromSystem(s *soc.System) *Report {
	r := BaseSystem(len(s.Cores))
	r.Title = fmt.Sprintf("platform (%s, %d cores)", s.Cfg.Protection, len(s.Cores))
	r.Add("mailbox ip", 1, MailboxIP())

	switch s.Cfg.Protection {
	case soc.Unprotected:
		// nothing more

	case soc.Distributed:
		nAdapters := 0
		for i, fw := range s.CoreFWs {
			r.Add(fmt.Sprintf("lf-cpu%d", i), 1, LocalFirewall(fw.Config().RuleCount()))
			nAdapters++
		}
		r.Add("lf-dma (master)", 1, LocalFirewall(s.DMAFW.Config().RuleCount()))
		r.Add("lf-bram", 1, LocalFirewall(s.BRAMFW.Config().RuleCount()))
		r.Add("lf-dmaregs", 1, LocalFirewall(s.DMARegFW.Config().RuleCount()))
		r.Add("lf-mbox", 1, LocalFirewall(s.MboxFW.Config().RuleCount()))
		nAdapters += 4
		var icBits uint64 = CalibICBits
		if t := s.LCF.Tree(); t != nil {
			icBits = t.OnChipBits()
		}
		r.Add("lcf", 1, LCF(s.LCF.Config().RuleCount(), icBits))
		nAdapters++ // the LCF's adapter is inside LCF() already; count others
		r.Add("interface adapter", nAdapters-1, InterfaceAdapter())
		r.Add("security controller", 1, SecurityController())

	case soc.Centralized:
		r.Add("sem", 1, SEMModule(s.SEM.Config().RuleCount()))
		r.Add("sei", len(s.CoreSEIs)+1, SEIAdapter()) // cores + dma
	}
	return r
}

// RenderTable1 renders the reproduced Table I with recomputed overhead
// percentages.
func RenderTable1() string {
	tb := trace.NewTable("Table I — synthesis results of the multiprocessor system (model)",
		"component", "Slice Regs", "Slice LUTs", "LUT-FF pairs", "BRAMs")
	rows := PaperTable1Rows()
	without := rows[0].Res
	with := rows[1].Res
	add := func(name string, r Resources) {
		tb.AddRow(name, trace.Comma(r.Regs), trace.Comma(r.LUTs), trace.Comma(r.Pairs), trace.Comma(r.BRAM))
	}
	add(rows[0].Name, without)
	add(rows[1].Name, with)
	tb.AddRow("  overhead",
		trace.Pct(float64(with.Regs), float64(without.Regs)),
		trace.Pct(float64(with.LUTs), float64(without.LUTs)),
		trace.Pct(float64(with.Pairs), float64(without.Pairs)),
		trace.Pct(float64(with.BRAM), float64(without.BRAM)))
	tb.Separator()
	for _, it := range rows[2:] {
		add(it.Name, it.Res)
	}
	return tb.String()
}

// RenderTable2 regenerates Table II (firewall module latencies) followed
// by the measured end-to-end cost of a single-word read and write to every
// memory zone of the distributed platform — how the module latencies
// compose in practice. The Security Builder row is measured, not quoted: a
// write a read-only rule discards costs exactly the rule check. CC and IC
// come from the hardware timing descriptors. sb is the measured SB
// latency in cycles.
func RenderTable2() (text string, sb uint64) {
	freq := sim.DefaultFrequency
	eng := sim.NewEngine(freq)
	b := bus.New(eng, bus.Config{})
	b.AddSlave(mem.NewBRAM("bram", 0x1000_0000, 0x1000))
	lf := core.NewLocalFirewall(eng, "lf", b.NewMaster("m"),
		core.MustConfig(core.Policy{SPI: 1, Zone: core.Zone{Base: 0x1000_0000, Size: 0x1000},
			RWA: core.ReadOnly, ADF: core.AnyWidth}), core.NewAlertLog())
	tx := &bus.Transaction{Op: bus.Write, Addr: 0x1000_0000, Size: 4, Burst: 1, Data: []uint32{1}}
	done := false
	lf.Submit(tx, func(*bus.Transaction) { done = true })
	eng.RunUntil(func() bool { return done }, 1000)
	sb = tx.Completed - tx.Issued

	cc, ic := aes.DefaultTiming, hashtree.DefaultTiming
	t2 := trace.NewTable("Table II — latency results of the firewalls",
		"module", "nb. of clk cycles", "throughput (Mb/s)")
	t2.AddRow("SB (LF/LCF)", fmt.Sprintf("%d", sb), "-")
	t2.AddRow("CC", fmt.Sprintf("%d", cc.Latency), fmt.Sprintf("%.0f", cc.ThroughputMbps(uint64(freq))))
	t2.AddRow("IC", fmt.Sprintf("%d", ic.Latency), fmt.Sprintf("%.0f", ic.ThroughputMbps(uint64(freq))))

	zt := trace.NewTable("measured end-to-end access cost (distributed platform, probe master)",
		"target", "read (cycles)", "write (cycles)")
	s := soc.MustNew(soc.Config{Protection: soc.Distributed})
	s.HaltIdleCores()
	m := s.Bus.NewMaster("probe")
	measure := func(op bus.Op, addr uint32) uint64 {
		tx := &bus.Transaction{Op: op, Addr: addr, Size: 4, Burst: 1, Data: []uint32{0xDA7A}}
		done := false
		m.Submit(tx, func(*bus.Transaction) { done = true })
		s.Eng.RunUntil(func() bool { return done }, 1_000_000)
		return tx.Completed - tx.Issued
	}
	for _, z := range []struct {
		name string
		addr uint32
	}{
		{"bram (internal)", soc.BRAMBase},
		{"ddr plain", soc.PlainBase},
		{"ddr cipher (CM)", soc.CipherBase},
		{"ddr secure (CM+IM)", soc.SecureBase},
	} {
		rd := measure(bus.Read, z.addr)
		wr := measure(bus.Write, z.addr)
		zt.AddRow(z.name, fmt.Sprintf("%d", rd), fmt.Sprintf("%d", wr))
	}
	return t2.String() + "\n" + zt.String(), sb
}

// RenderReport renders a bill of materials.
func RenderReport(r *Report) string {
	tb := trace.NewTable(r.Title, "component", "n", "Slice Regs", "Slice LUTs", "LUT-FF pairs", "BRAMs")
	for _, it := range r.Items {
		t := it.Total()
		tb.AddRow(it.Name, fmt.Sprintf("%d", it.Count),
			trace.Comma(t.Regs), trace.Comma(t.LUTs), trace.Comma(t.Pairs), trace.Comma(t.BRAM))
	}
	tb.Separator()
	total := r.Total()
	tb.AddRow("total", "",
		trace.Comma(total.Regs), trace.Comma(total.LUTs), trace.Comma(total.Pairs), trace.Comma(total.BRAM))
	return tb.String()
}

// Package ip provides the platform's dedicated IPs: a DMA copy engine and
// a mailbox FIFO. The paper's case study includes "one dedicated IP"; the
// DMA engine is the interesting one for security because it is both a bus
// slave (configuration registers, guarded by a slave-side Local Firewall)
// and a bus master (data movement, guarded by a master-side Local
// Firewall) — a hijacked DMA is a classic confused-deputy attack vector.
package ip

import (
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/sim"
)

// DMA register offsets (word registers, from the slave base).
const (
	DMARegSrc    = 0x00 // source byte address
	DMARegDst    = 0x04 // destination byte address
	DMARegLen    = 0x08 // length in bytes (multiple of 4)
	DMARegCtrl   = 0x0C // write 1 to start
	DMARegStatus = 0x10 // bit0 busy, bit1 done, bit2 error
	dmaRegSpan   = 0x20
)

// DMA status bits.
const (
	DMABusy  = 1 << 0
	DMADone  = 1 << 1
	DMAError = 1 << 2
)

// dmaChunkWords is the burst size the engine moves per bus transaction.
const dmaChunkWords = 8

// DMA is a memory-to-memory copy engine.
type DMA struct {
	name string
	base uint32
	eng  *sim.Engine
	conn bus.Conn // master path to the bus (possibly through a firewall)

	src, dst, length uint32
	status           uint32

	// in-flight state
	remaining uint32
	rdAddr    uint32
	wrAddr    uint32
	pending   bool // a bus transaction is outstanding

	// The engine moves one chunk at a time (read, then write), so a
	// single transaction pair, chunk buffer and callbacks bound once at
	// construction are reused for every chunk.
	rdTx, wrTx     bus.Transaction
	chunk          [dmaChunkWords]uint32
	onRead, onWrit func(*bus.Transaction)

	// Copies counts completed descriptors; Errors counts failed ones.
	Copies, Errors uint64
}

// NewDMA creates the engine. conn is its master-side bus attachment; pass
// a LocalFirewall-wrapped connection for a protected platform. The
// register file occupies [base, base+0x20).
func NewDMA(eng *sim.Engine, name string, base uint32, conn bus.Conn) *DMA {
	d := &DMA{name: name, base: base, eng: eng, conn: conn}
	d.onRead = d.readDone
	d.onWrit = d.writeDone
	eng.AddTicker(d)
	return d
}

// Name implements bus.Slave.
func (d *DMA) Name() string { return d.name }

// Base implements bus.Slave.
func (d *DMA) Base() uint32 { return d.base }

// Size implements bus.Slave.
func (d *DMA) Size() uint32 { return dmaRegSpan }

// Busy reports whether a transfer is in progress.
func (d *DMA) Busy() bool { return d.status&DMABusy != 0 }

// Access implements bus.Slave: the register file (1 wait state, word
// access only — narrower writes get a slave error, which the ADF rule of
// its firewall would normally have filtered already).
func (d *DMA) Access(now uint64, tx *bus.Transaction) (uint64, bus.Resp) {
	if tx.Size != 4 || tx.Burst != 1 {
		return 1, bus.RespSlaveErr
	}
	off := tx.Addr - d.base
	if tx.Op == bus.Read {
		switch off {
		case DMARegSrc:
			tx.Data[0] = d.src
		case DMARegDst:
			tx.Data[0] = d.dst
		case DMARegLen:
			tx.Data[0] = d.length
		case DMARegCtrl:
			tx.Data[0] = 0
		case DMARegStatus:
			tx.Data[0] = d.status
		default:
			return 1, bus.RespSlaveErr
		}
		return 1, bus.RespOK
	}
	switch off {
	case DMARegSrc:
		d.src = tx.Data[0]
	case DMARegDst:
		d.dst = tx.Data[0]
	case DMARegLen:
		d.length = tx.Data[0]
	case DMARegCtrl:
		if tx.Data[0]&1 != 0 {
			d.start()
		}
	case DMARegStatus:
		d.status &^= tx.Data[0] & (DMADone | DMAError) // write-1-to-clear
	default:
		return 1, bus.RespSlaveErr
	}
	return 1, bus.RespOK
}

func (d *DMA) start() {
	if d.Busy() {
		return // ignored while running, as on real devices
	}
	if d.length == 0 || d.length%4 != 0 || d.src%4 != 0 || d.dst%4 != 0 {
		d.status = DMAError
		d.Errors++
		return
	}
	d.status = DMABusy
	d.remaining = d.length
	d.rdAddr = d.src
	d.wrAddr = d.dst
}

// Tick implements sim.Ticker: drive the copy loop, one outstanding bus
// transaction at a time (read a chunk, then write it).
func (d *DMA) Tick(now uint64) {
	if !d.Busy() || d.pending {
		return
	}
	if d.remaining == 0 {
		d.status = DMADone
		d.Copies++
		return
	}
	words := d.remaining / 4
	if words > dmaChunkWords {
		words = dmaChunkWords
	}
	rd := &d.rdTx
	*rd = bus.Transaction{
		Master: d.name, Op: bus.Read, Addr: d.rdAddr, Size: 4, Burst: int(words),
		Data: d.chunk[:words],
	}
	d.pending = true
	d.conn.Submit(rd, d.onRead)
}

// IdleUntil implements sim.Idler: an idle engine or one waiting on its
// outstanding transaction only wakes on an event (a register write, a bus
// completion).
func (d *DMA) IdleUntil(now uint64) uint64 {
	if !d.Busy() || d.pending {
		return math.MaxUint64
	}
	return now
}

// Skip implements sim.Idler; the engine keeps no per-cycle counters.
func (d *DMA) Skip(uint64) {}

// readDone turns a fetched chunk around into the write half of the copy.
func (d *DMA) readDone(rdDone *bus.Transaction) {
	if !rdDone.Resp.OK() {
		d.fail()
		return
	}
	wr := &d.wrTx
	*wr = bus.Transaction{
		Master: d.name, Op: bus.Write, Addr: d.wrAddr, Size: 4,
		Burst: rdDone.Burst, Data: rdDone.Data,
	}
	d.conn.Submit(wr, d.onWrit)
}

// writeDone retires the chunk and advances the copy cursors.
func (d *DMA) writeDone(wrDone *bus.Transaction) {
	d.pending = false
	if !wrDone.Resp.OK() {
		d.fail()
		return
	}
	n := uint32(wrDone.Burst) * 4
	d.rdAddr += n
	d.wrAddr += n
	d.remaining -= n
}

func (d *DMA) fail() {
	d.pending = false
	d.status = DMAError
	d.Errors++
}

// String summarizes the engine state.
func (d *DMA) String() string {
	return fmt.Sprintf("%s: src=%#x dst=%#x len=%d status=%#x", d.name, d.src, d.dst, d.length, d.status)
}

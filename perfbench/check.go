package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
)

// record holds the fields of a campaign record or a sweep result that the
// benchmark reads. Both kinds carry per-core counters and per-firewall
// snapshots under the same keys.
type record struct {
	Background  string            `json:"background"`
	Alerts      uint64            `json:"alerts"`
	Quarantines uint64            `json:"quarantines"`
	Windows     []json.RawMessage `json:"windows"`
	Cores       []struct {
		Cycles       uint64 `json:"cycles"`
		Instructions uint64 `json:"instructions"`
		StallCycles  uint64 `json:"stall_cycles"`
	} `json:"cores"`
	Firewalls []struct {
		Checked      uint64 `json:"checked"`
		Blocked      uint64 `json:"blocked"`
		CryptoCycles uint64 `json:"crypto_cycles"`
	} `json:"firewalls"`
	Error string `json:"error"`
}

// recordStats sums the deterministic counters of one verified stream.
type recordStats struct {
	points       int
	bytes        int
	cycles       uint64
	instructions uint64
	stalls       uint64
	fwChecked    uint64
	fwBlocked    uint64
	alerts       uint64
	windows      uint64
	quarantines  uint64
	// crypto and byBackground split LCF crypto cycles and point counts by
	// background.
	crypto       map[string]uint64
	byBackground map[string]int
}

func (s *recordStats) add(line []byte, r *record) {
	s.points++
	s.bytes += len(line) + 1
	for _, c := range r.Cores {
		s.cycles += c.Cycles
		s.instructions += c.Instructions
		s.stalls += c.StallCycles
	}
	for _, f := range r.Firewalls {
		s.fwChecked += f.Checked
		s.fwBlocked += f.Blocked
		s.crypto[r.Background] += f.CryptoCycles
	}
	s.byBackground[r.Background]++
	s.alerts += r.Alerts
	s.windows += uint64(len(r.Windows))
	s.quarantines += r.Quarantines
}

// merge adds another stream's counts.
func (s *recordStats) merge(o *recordStats) {
	s.points += o.points
	s.bytes += o.bytes
	s.cycles += o.cycles
	s.instructions += o.instructions
	s.stalls += o.stalls
	s.fwChecked += o.fwChecked
	s.fwBlocked += o.fwBlocked
	s.alerts += o.alerts
	s.windows += o.windows
	s.quarantines += o.quarantines
	crypto := maps.Clone(s.crypto)
	byBackground := maps.Clone(s.byBackground)
	for k, v := range o.crypto {
		crypto[k] += v
	}
	for k, v := range o.byBackground {
		byBackground[k] += v
	}
	s.crypto, s.byBackground = crypto, byBackground
}

// expect is the verified output of one spec: the bytes every later stream
// of the same spec must reproduce.
type expect struct {
	grid   int
	digest [32]byte
	lines  [][]byte
	stats  recordStats
}

// newExpect verifies a reference stream — exactly grid lines, each a
// record without an error — and returns it with the number of grid
// points it got wrong (error records plus missing or extra lines).
func newExpect(body []byte, grid int) (*expect, int) {
	e := &expect{
		grid:   grid,
		digest: sha256.Sum256(body),
		stats:  recordStats{crypto: map[string]uint64{}, byBackground: map[string]int{}},
	}
	e.lines = splitLines(body)
	failed := 0
	for _, line := range e.lines {
		var r record
		if err := json.Unmarshal(line, &r); err != nil || r.Error != "" {
			failed++
			continue
		}
		e.stats.add(line, &r)
	}
	if n := len(e.lines); n != grid {
		failed += max(n-grid, grid-n)
	}
	return e, min(failed, grid)
}

// failures counts the grid points a stream of the same spec got wrong:
// every line that differs from the reference (an error record, a flipped
// byte) and every line missing from a short or truncated stream. A
// matching digest settles it without a line walk.
func (e *expect) failures(body []byte) int {
	if sha256.Sum256(body) == e.digest {
		return 0
	}
	got := splitLines(body)
	failed := 0
	for i := 0; i < e.grid; i++ {
		if i >= len(got) || i >= len(e.lines) || !bytes.Equal(got[i], e.lines[i]) {
			failed++
		}
	}
	if failed == 0 {
		// Every expected line matched, so the difference is extra output.
		failed = e.grid
	}
	return failed
}

// splitLines returns the newline-terminated lines of body. A trailing
// fragment without its newline is a truncated record and is dropped.
func splitLines(body []byte) [][]byte {
	var lines [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			break
		}
		lines = append(lines, body[:i])
		body = body[i+1:]
	}
	return lines
}

// pinDigest makes "same seed, same bytes" hold across runs: the first
// run of a (binary, workload, seed) records its output digest under dir,
// and every later run must reproduce it.
func pinDigest(dir, key string, digest [32]byte) error {
	path := filepath.Join(dir, key+".sha256")
	want := hex.EncodeToString(digest[:])
	old, err := os.ReadFile(path)
	if err == nil {
		if string(old) != want {
			return fmt.Errorf("output digest %s differs from %s recorded by an earlier run with the same seed", want, old)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	return os.WriteFile(path, []byte(want), 0o644)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	flash "repro"
)

// defaultSeed is the seed bench/golden.json was recorded with.
const defaultSeed = 1

// outcome is what a run must reproduce: the final model and the multiset
// of verdicts the stream produced.
type outcome struct {
	Fingerprint string `json:"fingerprint"`
	Verdicts    int    `json:"verdicts"`
	VerdictHash string `json:"verdict_hash"`
}

func (o outcome) String() string {
	return fmt.Sprintf("fingerprint=%.16s verdicts=%d hash=%.16s", o.Fingerprint, o.Verdicts, o.VerdictHash)
}

// verdictDigest hashes the sorted multiset of results, the same
// canonical form the repository's differential tests compare.
func verdictDigest(rs []flash.Result) (int, string) {
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return len(rs), hex.EncodeToString(sum[:])
}

func systemOutcome(sys *flash.System, epoch string, rs []flash.Result) (outcome, error) {
	fp, err := sys.ModelFingerprint(epoch)
	if err != nil {
		return outcome{}, err
	}
	n, h := verdictDigest(rs)
	return outcome{Fingerprint: fp, Verdicts: n, VerdictHash: h}, nil
}

// builderOutcome fingerprints a ModelBuilder, which has no fingerprint of
// its own: the equivalence-class count plus the forwarding action of
// every device at 64 seeded headers.
func builderOutcome(b *flash.ModelBuilder, in *inputs) (outcome, error) {
	if err := b.Flush(); err != nil {
		return outcome{}, err
	}
	rng := rand.New(rand.NewSource(0x6f7574))
	width := uint(in.layout.FieldBits("dst"))
	var sb strings.Builder
	fmt.Fprintf(&sb, "ecs=%d", b.ECs())
	for i := 0; i < 64; i++ {
		hdr := []uint64{rng.Uint64() & (1<<width - 1)}
		for dev := 0; dev < in.topo.N(); dev++ {
			a, err := b.ActionAt(flash.DeviceID(dev), hdr)
			if err != nil {
				return outcome{}, err
			}
			fmt.Fprintf(&sb, ";%d@%x=%d", dev, hdr[0], a)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return outcome{Fingerprint: hex.EncodeToString(sum[:])}, nil
}

// tally counts operations attempted and failed, and remembers why.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok(n int) { t.attempted += n }

// maxReasons caps how many failure descriptions a run keeps.
const maxReasons = 10

// absorb adds another tally's counts (a reader goroutine's, a probe's).
func (t *tally) absorb(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, reason := range o.reasons {
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, reason)
		}
	}
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// expect counts one comparison and fails it when got differs from want.
func (t *tally) expect(what string, got, want outcome) {
	if got != want {
		t.fail("%s: got %s, want %s", what, got, want)
		return
	}
	t.ok(1)
}

// golden maps workload → outcome name → outcome for defaultSeed.
type golden map[string]map[string]outcome

func goldenPath(dir string) string { return filepath.Join(dir, "golden.json") }

func loadGolden(dir string) (golden, error) {
	data, err := os.ReadFile(goldenPath(dir))
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(dir), err)
	}
	return g, nil
}

// updateGolden rewrites one workload's entry, keeping the others.
func updateGolden(dir, workload string, got map[string]outcome) error {
	g, err := loadGolden(dir)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		g = golden{}
	}
	g[workload] = got
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir), append(data, '\n'), 0o644)
}

package flash

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fib"
	"repro/internal/obs"
)

// TestAdminMetricsEndToEnd drives the full flashd shape: a System built
// with an observability registry behind the TCP wire server, an agent
// feeding an epoch-tagged update block, and the admin handler (the exact
// handler cmd/flashd mounts) serving /metrics, /healthz and
// /debug/pprof/. Per-subspace IMT and per-epoch CE2D metrics must
// advance after the block is fed.
func TestAdminMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry("flashd")
	sys, err := NewSystem(
		WithTopo(lineTopo()),
		WithLayout(dst8),
		WithSubspaces(2, ""),
		WithChecks(CheckSpec{Name: "loops", Kind: CheckLoopFree, ExitNodes: []string{"d"}}),
		WithMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	results := make(chan Result, 16)
	srv := NewServer(l, sys, func(r Result) { results <- r })
	go srv.Serve()
	defer srv.Close()

	agent, err := DialAgent(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	// b→c then c→b: a forwarding loop over the whole space; CE2D must
	// detect it early (devices a and d never synchronize).
	msgs := []Msg{
		{Device: 1, Epoch: "e1", Updates: []Update{wildcard(1, Forward(2))}},
		{Device: 2, Epoch: "e1", Updates: []Update{wildcard(2, Forward(1))}},
	}
	for _, m := range msgs {
		if err := agent.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-results:
		if r.Loop != LoopFound {
			t.Fatalf("result %+v, want loop", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no detection result")
	}

	admin := httptest.NewServer(NewAdminHandler(WithAdminMetrics(reg)))
	defer admin.Close()

	// /healthz
	body := get(t, admin.URL+"/healthz")
	if strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %q", body)
	}

	// /metrics reflects the fed update block. The result fires inside the
	// last frame's handler, before the wire server counts that frame, so
	// wait for the count to land.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if v, _ := reg.Snapshot().Get("wire", "frames_rx"); v >= int64(len(msgs)) {
			break
		}
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(get(t, admin.URL+"/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	for _, sub := range []string{"subspace0", "subspace1"} {
		// Per-epoch CE2D dispatcher progress.
		if v, ok := snap.Get("ce2d", sub, "messages"); !ok || v != int64(len(msgs)) {
			t.Errorf("ce2d/%s/messages = %d (ok=%v), want %d", sub, v, ok, len(msgs))
		}
		if v, ok := snap.Get("ce2d", sub, "verifiers_created"); !ok || v < 1 {
			t.Errorf("ce2d/%s/verifiers_created = %d (ok=%v), want >= 1", sub, v, ok)
		}
		if v, ok := snap.Get("ce2d", sub, "devices_synced"); !ok || v < 2 {
			t.Errorf("ce2d/%s/devices_synced = %d (ok=%v), want >= 2", sub, v, ok)
		}
		if h, ok := snap.Hist("ce2d", sub, "straggler_wait_ns"); !ok || h.Count < 2 {
			t.Errorf("ce2d/%s/straggler_wait_ns count = %d (ok=%v), want >= 2", sub, h.Count, ok)
		}
		if h, ok := snap.Hist("ce2d", sub, "feed_ns"); !ok || h.Count != int64(len(msgs)) {
			t.Errorf("ce2d/%s/feed_ns count = %d (ok=%v), want %d", sub, h.Count, ok, len(msgs))
		}
		// Per-subspace Fast IMT model-update activity inside the epoch
		// verifier (wildcard rules intersect both subspaces).
		if v, ok := snap.Get("ce2d", sub, "imt", "updates"); !ok || v < 2 {
			t.Errorf("ce2d/%s/imt/updates = %d (ok=%v), want >= 2", sub, v, ok)
		}
		if h, ok := snap.Hist("ce2d", sub, "imt", "map_ns"); !ok || h.Count < 2 {
			t.Errorf("ce2d/%s/imt/map_ns count = %d (ok=%v), want >= 2", sub, h.Count, ok)
		}
		// Engine gauges are sampled at snapshot time.
		if v, ok := snap.Get("ce2d", sub, "bdd_nodes"); !ok || v < 2 {
			t.Errorf("ce2d/%s/bdd_nodes = %d (ok=%v), want >= 2", sub, v, ok)
		}
	}
	// Wire transport counters.
	if v, ok := snap.Get("wire", "frames_rx"); !ok || v != int64(len(msgs)) {
		t.Errorf("wire/frames_rx = %d (ok=%v), want %d", v, ok, len(msgs))
	}
	if v, ok := snap.Get("wire", "bytes_rx"); !ok || v <= 0 {
		t.Errorf("wire/bytes_rx = %d (ok=%v), want > 0", v, ok)
	}
	if v, ok := snap.Get("wire", "conns_total"); !ok || v != 1 {
		t.Errorf("wire/conns_total = %d (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Get("serve", "results"); !ok || v < 1 {
		t.Errorf("serve/results = %d (ok=%v), want >= 1", v, ok)
	}

	// /debug/pprof/ and /debug/vars respond.
	if body := get(t, admin.URL+"/debug/pprof/"); !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong: %.80s", body)
	}
	if body := get(t, admin.URL+"/debug/vars"); !strings.Contains(string(body), "memstats") {
		t.Errorf("/debug/vars looks wrong: %.80s", body)
	}
}

// TestAdminModelBuilderMetrics checks the offline path: ModelBuilder
// subspace workers publish Fast IMT activity under imt/subspace<i>.
func TestAdminModelBuilderMetrics(t *testing.T) {
	reg := obs.NewRegistry("builder")
	b := NewModelBuilder(
		WithTopo(lineTopo()),
		WithLayout(dst8),
		WithSubspaces(2, ""),
		WithMetrics(reg),
	)
	blocks := []DeviceBlock{
		{Device: 0, Updates: []Update{wildcard(1, Forward(1))}},
		{Device: 1, Updates: []Update{
			wildcard(1, Drop),
			{Op: fib.Insert, Rule: Rule{ID: 2, Pri: 4, Action: Forward(2),
				Desc: MatchDesc{{Field: "dst", Kind: fib.MatchPrefix, Value: 0x80, Len: 1}}}},
		}},
	}
	if err := b.ApplyBlock(blocks); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, sub := range []string{"subspace0", "subspace1"} {
		if v, ok := snap.Get("imt", sub, "updates"); !ok || v < 2 {
			t.Errorf("imt/%s/updates = %d (ok=%v), want >= 2", sub, v, ok)
		}
		if v, ok := snap.Get("imt", sub, "ecs"); !ok || v < 1 {
			t.Errorf("imt/%s/ecs = %d (ok=%v), want >= 1", sub, v, ok)
		}
		if v, ok := snap.Get("imt", sub, "bdd_ops"); !ok || v <= 0 {
			t.Errorf("imt/%s/bdd_ops = %d (ok=%v), want > 0", sub, v, ok)
		}
		if h, ok := snap.Hist("imt", sub, "apply_ns"); !ok || h.Count != 1 {
			t.Errorf("imt/%s/apply_ns count = %d (ok=%v), want 1", sub, h.Count, ok)
		}
	}
	// Metrics survive a Compact (the rotated transformer re-attaches).
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.ApplyBlock([]DeviceBlock{{Device: 2, Updates: []Update{wildcard(3, Drop)}}}); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if h, ok := snap.Hist("imt", "subspace0", "apply_ns"); !ok || h.Count < 2 {
		t.Errorf("after Compact: imt/subspace0/apply_ns count = %d (ok=%v), want >= 2", h.Count, ok)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return body
}

// TestAdminCheckpointEndpoint covers POST /v1/checkpoint: method
// gating, the unconfigured 404, the success JSON shape, and the error
// path.
func TestAdminCheckpointEndpoint(t *testing.T) {
	_, _, msgs := chaosWorkload(t)
	sys, err := NewSystem(ckptSysOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:len(msgs)/8] {
		if _, err := sys.FeedContext(context.Background(), m); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	admin := httptest.NewServer(NewAdminHandler(
		WithAdminSystem(sys),
		WithAdminCheckpoint(func() (CheckpointInfo, error) { return sys.Checkpoint(dir) }),
	))
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/checkpoint = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(admin.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Path      string `json:"path"`
		Bytes     int64  `json:"bytes"`
		Subspaces int    `json:"subspaces"`
		TookNs    int64  `json:"took_ns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/checkpoint = %d", resp.StatusCode)
	}
	if info.Bytes <= 0 || info.Subspaces == 0 || info.Path == "" {
		t.Fatalf("implausible checkpoint response: %+v", info)
	}
	if _, err := os.Stat(info.Path); err != nil {
		t.Fatalf("reported checkpoint path missing: %v", err)
	}

	// Unconfigured daemon: the endpoint explains how to enable it.
	bare := httptest.NewServer(NewAdminHandler(WithAdminSystem(sys)))
	defer bare.Close()
	resp, err = http.Post(bare.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unconfigured POST = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "checkpoint-dir") {
		t.Fatalf("unconfigured error does not mention the flag: %s", body)
	}

	// Error path surfaces as 500.
	broken := httptest.NewServer(NewAdminHandler(WithAdminCheckpoint(
		func() (CheckpointInfo, error) { return CheckpointInfo{}, errors.New("disk on fire") },
	)))
	defer broken.Close()
	resp, err = http.Post(broken.URL+"/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failing checkpoint POST = %d, want 500", resp.StatusCode)
	}
}

// TestAdminHealthzRestoring: while preloaded streams are still waiting
// for their agents, /healthz must answer 503 "restoring" with progress,
// flipping to 200 once replay completes.
func TestAdminHealthzRestoring(t *testing.T) {
	var mu sync.Mutex
	pending, preloaded := 2, 3
	admin := httptest.NewServer(NewAdminHandler(WithAdminRestoring(func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		return pending, preloaded
	})))
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while restoring = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "restoring") || !strings.Contains(string(body), "1/3") {
		t.Fatalf("restoring body lacks progress: %q", body)
	}

	mu.Lock()
	pending = 0
	mu.Unlock()
	resp, err = http.Get(admin.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after replay = %d, want 200: %s", resp.StatusCode, body)
	}
}

// TestAdminShardsEndpoint: /v1/shards serves the mounted coordinator
// status thunk as JSON and 404s when nothing is mounted.
func TestAdminShardsEndpoint(t *testing.T) {
	status := map[string]any{
		"subspaces": 4,
		"log_len":   17,
		"shards": []map[string]any{
			{"id": 0, "subspaces": []int{0, 1}, "healthy": true, "lag": 0},
			{"id": 1, "subspaces": []int{2, 3}, "healthy": false, "lag": 5},
		},
	}
	admin := httptest.NewServer(NewAdminHandler(WithAdminShards(func() any { return status })))
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/shards = %d: %s", resp.StatusCode, body)
	}
	var got struct {
		Subspaces int `json:"subspaces"`
		LogLen    int `json:"log_len"`
		Shards    []struct {
			ID      int  `json:"id"`
			Healthy bool `json:"healthy"`
			Lag     int  `json:"lag"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding /v1/shards: %v: %s", err, body)
	}
	if got.Subspaces != 4 || got.LogLen != 17 || len(got.Shards) != 2 ||
		got.Shards[1].Lag != 5 || got.Shards[1].Healthy {
		t.Fatalf("unexpected /v1/shards payload: %s", body)
	}

	resp, err = http.Post(admin.URL+"/v1/shards", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/shards = %d, want 405", resp.StatusCode)
	}

	bare := httptest.NewServer(NewAdminHandler())
	defer bare.Close()
	resp, err = http.Get(bare.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/shards without coordinator = %d, want 404", resp.StatusCode)
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// getJSON fetches url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// waitReady polls s.Ready() until true or the deadline passes.
func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !s.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestImageSaveAndWarmBoot is the serving-layer warm-start oracle: a
// warmed server saves an image, a second server boots from it, holds
// /readyz until pre-promotion lands, reports provenance on /statusz,
// and then serves the warmed workload without a single new compile.
func TestImageSaveAndWarmBoot(t *testing.T) {
	cold, ts := newTestServer(t, Config{Pool: 2, Benches: []string{"sumTo", "sieve"}})
	// Warm: run the benches and intern an eval program.
	for i := 0; i < 3; i++ {
		if code, res := postJSON(t, ts.URL+"/run", `{"bench": "sumTo"}`); code != http.StatusOK {
			t.Fatalf("warmup run: status %d %+v", code, res)
		}
	}
	if code, res := postJSON(t, ts.URL+"/eval", `{"expr": "6 * 7"}`); code != http.StatusOK || res.Int != 42 {
		t.Fatalf("warmup eval: status %d %+v", code, res)
	}
	if b := cold.Boot(); b.Image != "cold" || !b.Ready || b.Prepromoted != 0 {
		t.Fatalf("cold server boot info: %+v", b)
	}

	path := filepath.Join(t.TempDir(), "world.img")
	info, err := cold.SaveImage(path)
	if err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	if info.Manifest == 0 {
		t.Fatal("warmed server saved an empty code manifest")
	}
	if info.Programs == 0 {
		t.Fatal("interned eval program missing from the image")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(info.Bytes) {
		t.Fatalf("image file: %v (size %v, want %d)", err, st, info.Bytes)
	}

	warm, wts := newTestServer(t, Config{Pool: 2, Benches: []string{"sumTo", "sieve"}, ImagePath: path})
	waitReady(t, warm)

	b := warm.Boot()
	if b.Image != info.Hash {
		t.Fatalf("warm boot image %q, want %q", b.Image, info.Hash)
	}
	if b.RestoreSeconds <= 0 || b.ReadySeconds <= 0 {
		t.Fatalf("warm boot timings missing: %+v", b)
	}
	if b.Prepromoted == 0 || b.PrepromoteFailed != 0 {
		t.Fatalf("pre-promotion: %+v", b)
	}
	if int(b.Prepromoted) != info.Manifest {
		t.Fatalf("pre-promoted %d of %d manifest entries", b.Prepromoted, info.Manifest)
	}

	// /readyz answers 200 and /statusz carries the provenance block.
	resp, err := http.Get(wts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz on a ready warm server: %d", resp.StatusCode)
	}
	var status struct {
		Boot BootInfo `json:"boot"`
	}
	getJSON(t, wts.URL+"/statusz", &status)
	if status.Boot.Image != info.Hash || !status.Boot.Ready {
		t.Fatalf("/statusz boot block: %+v", status.Boot)
	}

	// The warmed workload must hit pre-promoted code only: no compiles.
	before := warm.root.CacheStats()
	if code, res := postJSON(t, wts.URL+"/run", `{"bench": "sumTo"}`); code != http.StatusOK {
		t.Fatalf("warm run: status %d %+v", code, res)
	}
	if code, res := postJSON(t, wts.URL+"/eval", `{"expr": "6 * 7"}`); code != http.StatusOK || res.Int != 42 {
		t.Fatalf("warm eval: status %d %+v", code, res)
	}
	after := warm.root.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("warm server compiled under the warmed workload: %d new misses", after.Misses-before.Misses)
	}

	// A bench the image did not carry still works (and may compile).
	if code, res := postJSON(t, wts.URL+"/run", `{"bench": "sieve"}`); code != http.StatusOK {
		t.Fatalf("non-manifest bench on warm server: status %d %+v", code, res)
	}
}

// TestImageBootRejectsBadPath: a missing or corrupt image fails New
// loudly instead of silently falling back to a cold boot.
func TestImageBootRejectsBadPath(t *testing.T) {
	if _, err := New(Config{Pool: 1, Benches: []string{}, ImagePath: "/nonexistent/world.img"}); err == nil {
		t.Fatal("New accepted a missing image path")
	}
	bad := filepath.Join(t.TempDir(), "bad.img")
	if err := os.WriteFile(bad, []byte("not an image at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pool: 1, Benches: []string{}, ImagePath: bad}); err == nil {
		t.Fatal("New accepted a corrupt image")
	}
}

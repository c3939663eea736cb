package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pdfshield/internal/corpus"
	"pdfshield/internal/journal"
)

var addrRE = regexp.MustCompile(`addr=([0-9.]+:[0-9]+)`)

// TestServeSmoke is the end-to-end daemon smoke test (`make serve-smoke`):
// build the real binary, start it on an ephemeral port with a journal,
// POST a benign and a malicious corpus document, assert the verdict JSON,
// send SIGQUIT and require the diagnostic dump on stderr to list the
// benign document in its flight recorder section while the daemon keeps
// serving (/v1/healthz and /v1/debug/slow), then SIGTERM and require a
// clean drain — exit 0, "drained" logged, and the journaled doc-open
// flushed to disk. Last, the real pdfshield-detect binary must verify
// the daemon's journal by replay, with the journal as its only input.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pdfshield-serve")
	detectBin := filepath.Join(dir, "pdfshield-detect")
	for pkg, out := range map[string]string{"pdfshield/cmd/pdfshield-serve": bin, "pdfshield/cmd/pdfshield-detect": detectBin} {
		if msg, err := exec.Command("go", "build", "-o", out, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, msg)
		}
	}

	jpath := filepath.Join(dir, "events.jsonl")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-workers", "2",
		"-seed", "4242",
		"-journal", jpath,
		"-drain-timeout", "20s",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	defer func() { _ = cmd.Process.Kill() }()

	// Collect stderr while watching for the bound address in the
	// "listening" log line.
	var (
		mu     sync.Mutex
		logbuf bytes.Buffer
	)
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			logbuf.WriteString(line + "\n")
			mu.Unlock()
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never logged its listen address; log so far:\n%s", readLog(&mu, &logbuf))
	}

	// Scan a benign and a malicious corpus document.
	g := corpus.NewGenerator(4242)
	mal, _ := g.MaliciousFamily("mal-egghunt")
	for _, doc := range []struct {
		id        string
		raw       []byte
		malicious bool
	}{
		{"smoke-doc", g.BenignFormJS().Raw, false},
		{"smoke-mal", mal.Raw, true},
	} {
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/scan", bytes.NewReader(doc.raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Doc-Id", doc.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /scan: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scan status %d, body %s", resp.StatusCode, body)
		}
		var verdict struct {
			DocID     string `json:"doc_id"`
			Malicious bool   `json:"malicious"`
			Session   string `json:"journal_session"`
		}
		if err := json.Unmarshal(body, &verdict); err != nil {
			t.Fatalf("verdict JSON: %v (%s)", err, body)
		}
		if verdict.DocID != doc.id || verdict.Malicious != doc.malicious {
			t.Fatalf("verdict %s, want %s with malicious=%v", body, doc.id, doc.malicious)
		}
		if verdict.Session == "" {
			t.Error("verdict missing journal_session correlation key")
		}
	}

	// SIGQUIT prints the diagnostic dump to stderr and keeps serving.
	if err := cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatalf("SIGQUIT: %v", err)
	}
	var dump string
	for deadline := time.Now().Add(30 * time.Second); ; {
		log := readLog(&mu, &logbuf)
		if i := strings.Index(log, "=== pdfshield diagnostic dump ==="); i >= 0 && strings.Contains(log[i:], "=== end dump ===") {
			dump = log[i:]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no complete diagnostic dump on stderr after SIGQUIT\n%s", log)
		}
		time.Sleep(20 * time.Millisecond)
	}
	flight, _, _ := strings.Cut(dump, "--- goroutines ---")
	if _, flight, ok := strings.Cut(flight, "--- flight recorder ---"); !ok || !strings.Contains(flight, "smoke-doc") {
		t.Errorf("dump's flight recorder section does not list smoke-doc:\n%s", dump)
	}

	status, _ := get(t, "http://"+addr+"/v1/healthz")
	if status != http.StatusOK {
		t.Errorf("healthz status %d after SIGQUIT, want 200", status)
	}
	status, body := get(t, "http://"+addr+"/v1/debug/slow")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"doc_id": "smoke-doc"`)) {
		t.Errorf("/v1/debug/slow after SIGQUIT: status %d, body %s; want smoke-doc listed", status, body)
	}

	// Clean drain on SIGTERM. All stderr reads must complete before
	// cmd.Wait (Wait closes the pipe), so wait for the scanner's EOF —
	// which also guarantees the final "drained" line is in logbuf.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case <-scanDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon stderr never reached EOF after SIGTERM\n%s", readLog(&mu, &logbuf))
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited uncleanly after SIGTERM: %v\n%s", err, readLog(&mu, &logbuf))
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s\n%s", readLog(&mu, &logbuf))
	}
	if log := readLog(&mu, &logbuf); !bytes.Contains([]byte(log), []byte("drained")) {
		t.Errorf("drain completion never logged:\n%s", log)
	}

	// The journal must hold the flushed doc-open/verdict pair.
	events, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	var open, verd bool
	for _, e := range events {
		if e.DocID != "smoke-doc" {
			continue
		}
		switch e.T {
		case journal.TypeDocOpen:
			open = true
		case journal.TypeVerdict:
			verd = true
		}
	}
	if !open || !verd {
		t.Errorf("journal missing smoke-doc events (open=%v verdict=%v, %d total)", open, verd, len(events))
	}

	// The journal alone replays, smoke-mal's alert included: no registry
	// or other side file.
	out, err := exec.Command(detectBin, "-replay", jpath).CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("replay verified")) || !bytes.Contains(out, []byte("ALERT doc=smoke-mal")) {
		t.Errorf("pdfshield-detect -replay on the daemon's journal: %v\n%s", err, out)
	}
	_ = os.Remove(bin)
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func readLog(mu *sync.Mutex, buf *bytes.Buffer) string {
	mu.Lock()
	defer mu.Unlock()
	return buf.String()
}

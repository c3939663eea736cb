package detect

import (
	"strings"
	"sync"
)

// DownloadEntry records one executable downloaded in JS context. The list
// outlives the volatile malscore, so cooperating multi-PDF attacks are
// still linked after the downloading document's state is gone (§III-E).
type DownloadEntry struct {
	Path  string
	DocID string
	Key   string
}

// DownloadList is the list of executables downloaded in JS context. It
// lives as long as its detector: a System links cooperating documents
// across all the submissions it scans, and a replay starts from the same
// empty list as its recording.
type DownloadList struct {
	mu      sync.Mutex
	entries map[string]DownloadEntry
}

func normExe(p string) string {
	return strings.ToLower(strings.ReplaceAll(p, "/", "\\"))
}

// Add records a downloaded executable.
func (dl *DownloadList) Add(e DownloadEntry) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	dl.entries[normExe(e.Path)] = e
}

// Lookup finds the entry for an executable path.
func (dl *DownloadList) Lookup(path string) (DownloadEntry, bool) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	e, ok := dl.entries[normExe(path)]
	return e, ok
}

// Len returns the list size.
func (dl *DownloadList) Len() int {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	return len(dl.entries)
}

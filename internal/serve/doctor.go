package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// doctorTimeout bounds each of the doctor's fetches; a wedged node must
// not wedge the diagnosis too.
const doctorTimeout = 10 * time.Second

// RunDoctor performs a one-shot remote diagnosis of a running daemon:
// it fetches the node's health, SLO status, slowest retained traces,
// stall reports and key metrics, and pretty-prints a report to w. This
// is `pdfshield-serve -doctor <addr>` — the 3am command that answers
// "what is that node doing" without attaching a profiler.
//
// The exit contract is diagnostic, not binary: RunDoctor returns an
// error only when the node is unreachable; a degraded node (burning
// SLO budget, stalled documents) still produces a report.
func RunDoctor(target string, w io.Writer) error {
	base := targetURL(target)
	client := &http.Client{Timeout: doctorTimeout}

	fmt.Fprintf(w, "pdfshield doctor: %s\n\n", base)

	health, err := doctorJSON(client, base+"/v1/healthz")
	if err != nil {
		// Draining nodes answer 503 with a body; only a transport error is
		// "unreachable".
		return fmt.Errorf("doctor: %s unreachable: %w", base, err)
	}
	fmt.Fprintf(w, "== health ==\n")
	doctorKV(w, health)

	if slo, err := doctorJSON(client, base+"/v1/debug/slo"); err != nil {
		fmt.Fprintf(w, "\n== slo ==\nunavailable: %v\n", err)
	} else {
		fmt.Fprintf(w, "\n== slo burn rates ==\n")
		if objs, ok := slo["objectives"].([]any); ok {
			for _, o := range objs {
				m, _ := o.(map[string]any)
				if m == nil {
					continue
				}
				obj, _ := m["objective"].(map[string]any)
				fmt.Fprintf(w, "%-16v burn=%-8.2v window=%v/%v lifetime=%v/%v\n",
					obj["name"], m["burn_rate"],
					m["window_breached"], m["window_observed"],
					m["breached"], m["observed"])
			}
		}
	}

	if slow, err := doctorJSON(client, base+"/v1/debug/slow"); err != nil {
		fmt.Fprintf(w, "\n== slow ==\nunavailable: %v\n", err)
	} else {
		fmt.Fprintf(w, "\n== slowest retained traces ==\n")
		if recs, ok := slow["slowest"].([]any); ok {
			for i, r := range recs {
				if i >= 10 {
					break
				}
				m, _ := r.(map[string]any)
				if m == nil {
					continue
				}
				tr, _ := m["trace"].(map[string]any)
				retained := m["retained"]
				if retained == nil {
					retained = "-"
				}
				fmt.Fprintf(w, "%8.3fs %-30v outcome=%-14v depth=%-8v retained=%v\n",
					num(m["total_seconds"]), str(tr["doc_id"]), str(tr["outcome"]),
					str(tr["depth"]), retained)
			}
		}
	}

	if stalls, err := doctorJSON(client, base+"/v1/debug/stalls"); err != nil {
		fmt.Fprintf(w, "\n== stalls ==\nunavailable: %v\n", err)
	} else {
		fmt.Fprintf(w, "\n== stall watchdog ==\n")
		if st, ok := stalls["stats"].(map[string]any); ok {
			doctorKV(w, st)
		}
		if reps, ok := stalls["reports"].([]any); ok && len(reps) > 0 {
			for _, r := range reps {
				m, _ := r.(map[string]any)
				if m == nil {
					continue
				}
				fmt.Fprintf(w, "stalled: %v in %v (%.1fs)\n",
					m["doc_id"], m["phase"], num(m["stalled_ns"])/1e9)
			}
		}
	}

	if body, err := doctorGet(client, base+"/v1/metrics"); err != nil {
		fmt.Fprintf(w, "\n== metrics ==\nunavailable: %v\n", err)
	} else {
		fmt.Fprintf(w, "\n== key metrics ==\n")
		for _, line := range strings.Split(string(body), "\n") {
			// The full exposition runs to hundreds of lines; the doctor
			// surfaces the decision-driving families.
			if strings.HasPrefix(line, "pdfshield_slo_burn_rate") ||
				strings.HasPrefix(line, "pdfshield_docs_total") ||
				strings.HasPrefix(line, "pdfshield_serve_rejected_total") ||
				strings.HasPrefix(line, "pdfshield_watchdog_stalls_total") ||
				strings.HasPrefix(line, "pdfshield_flight_retained_total") ||
				strings.HasPrefix(line, "pdfshield_build_info") {
				fmt.Fprintln(w, line)
			}
		}
	}
	return nil
}

// targetURL normalizes the doctor's target ("host:port" or
// "http://host:port/") to a base URL without a trailing slash.
func targetURL(target string) string {
	if strings.Contains(target, "://") {
		return strings.TrimSuffix(target, "/")
	}
	return "http://" + target
}

// doctorGet fetches one URL, accepting any HTTP status (a draining
// node's 503 still carries the body the doctor wants).
func doctorGet(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// doctorJSON fetches one URL and decodes the JSON object it answers.
func doctorJSON(client *http.Client, url string) (map[string]any, error) {
	body, err := doctorGet(client, url)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return out, nil
}

// doctorKV prints a flat JSON object's scalar fields, sorted.
func doctorKV(w io.Writer, m map[string]any) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch m[k].(type) {
		case map[string]any, []any:
			continue
		default:
			fmt.Fprintf(w, "%-14s %v\n", k, m[k])
		}
	}
}

// num coerces a decoded JSON number (nil for anything else → 0).
func num(v any) float64 {
	f, _ := v.(float64)
	return f
}

// str coerces a decoded JSON string; absent fields print as "-" rather
// than Go's "<nil>".
func str(v any) string {
	if s, ok := v.(string); ok && s != "" {
		return s
	}
	return "-"
}

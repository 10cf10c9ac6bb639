package main

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
)

// documentedFamilies returns the metric names docs/OBSERVABILITY.md's
// families table names in its first column.
func documentedFamilies(t *testing.T) map[string]bool {
	t.Helper()
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| Family | Source | Meaning |\n")
	if !ok {
		t.Fatal("docs/OBSERVABILITY.md has no families table")
	}
	names := map[string]bool{}
	name := regexp.MustCompile("`(nc_[a-z0-9_]+)`")
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			names[m[1]] = true
		}
	}
	return names
}

// Every family a live daemon exports after an admit, a batch and a
// revalidation has a row in the documented families table.
func TestMetricFamiliesDocumented(t *testing.T) {
	ts := metricsServer(t)
	if resp, v := postAdmit(t, ts, flowBody("cam-1", "10 MiB/s")); resp.StatusCode != http.StatusOK || !v.Admitted {
		t.Fatalf("cam-1: status %d, verdict %+v", resp.StatusCode, v)
	}
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
	post("/admit/batch", "["+flowBody("b-1", "5 MiB/s")+"]")
	post("/revalidate", "")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	documented := documentedFamilies(t)
	families := regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllStringSubmatch(string(text), -1)
	if len(families) == 0 {
		t.Fatal("scrape has no # TYPE lines")
	}
	for _, m := range families {
		if !documented[m[1]] {
			t.Errorf("family %s has no row in docs/OBSERVABILITY.md's families table", m[1])
		}
	}
}

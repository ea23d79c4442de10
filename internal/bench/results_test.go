package bench

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tableHeader matches the first line of every table block in results.txt.
var tableHeader = regexp.MustCompile(`(?m)^T\d+N? — `)

// resultsBlock returns experiment id's block of results.txt: from its
// header line up to the next table's header (or the end of the file).
func resultsBlock(t *testing.T, results, id string) string {
	t.Helper()
	for _, loc := range tableHeader.FindAllStringIndex(results, -1) {
		if results[loc[0]:loc[1]] != id+" — " {
			continue
		}
		rest := results[loc[1]:]
		if next := tableHeader.FindStringIndex(rest); next != nil {
			rest = rest[:next[0]]
		}
		return results[loc[0]:loc[1]] + rest
	}
	t.Fatalf("results.txt has no %s block", id)
	return ""
}

// TestSingleServerTablesMatchResults regenerates the single-server tables
// and compares each byte for byte with its committed block in results.txt.
// Between them they drive both transports at width 1, both transfer knobs
// (DirectThreshold in T7, the registration cache in T8), nonblocking
// overlap (T9), metadata operations (T10), a second cost profile (T13) and
// the disk model (T14).
func TestSingleServerTablesMatchResults(t *testing.T) {
	raw, err := os.ReadFile("../../results.txt")
	if err != nil {
		t.Fatal(err)
	}
	results := string(raw)
	for _, id := range []string{"T7", "T8", "T9", "T10", "T13", "T14"} {
		t.Run(id, func(t *testing.T) {
			want := resultsBlock(t, results, id)
			var got bytes.Buffer
			ByID(id).Run().Fprint(&got)
			if got.String() == want {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
			for i := 0; i < max(len(gl), len(wl)); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Fatalf("%s differs from results.txt at line %d:\n got: %q\nwant: %q", id, i+1, g, w)
				}
			}
		})
	}
}

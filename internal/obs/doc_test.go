package obs_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"

	// The packages that register the process's metric families.
	_ "repro/internal/batch"
	_ "repro/internal/dist"
	_ "repro/internal/serve"
)

// inventoryRow is one row of the series inventory: the names in its first
// column, its kind and its label keys.
type inventoryRow struct {
	names  []string
	kind   string
	labels []string
}

// documents reports whether the row lists family name. A row may
// abbreviate siblings after its first, full name ("`ohm_x_hits_total` /
// `misses_total`"): a short name counts when it completes a prefix of the
// first name that ends at an underscore.
func (r inventoryRow) documents(name string) bool {
	for i, n := range r.names {
		if n == name {
			return true
		}
		if i == 0 || !strings.HasSuffix(name, "_"+n) {
			continue
		}
		if prefix := strings.TrimSuffix(name, n); strings.HasPrefix(r.names[0], prefix) {
			return true
		}
	}
	return false
}

// backticked returns the `quoted` spans of s in order.
func backticked(s string) []string {
	parts := strings.Split(s, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// seriesInventory parses the tables under "### Series inventory" in
// docs/reference/observability.md.
func seriesInventory(t *testing.T) []inventoryRow {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "reference", "observability.md"))
	if err != nil {
		t.Fatalf("reference page missing: %v", err)
	}
	_, section, ok := strings.Cut(string(raw), "### Series inventory\n")
	if !ok {
		t.Fatal("observability.md has no Series inventory section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var rows []inventoryRow
	for _, line := range strings.Split(section, "\n") {
		cols := strings.Split(line, "|")
		if len(cols) < 5 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`") {
			continue // prose, header or separator
		}
		rows = append(rows, inventoryRow{
			names:  backticked(cols[1]),
			kind:   strings.TrimSpace(cols[2]),
			labels: backticked(cols[3]),
		})
	}
	return rows
}

// TestDocInventoryCoversRegistry keeps the series inventory of
// docs/reference/observability.md honest: every family registered by the
// batch, dist and serve packages must appear in it with its kind and its
// label keys in order, and every full series name the inventory lists
// must still be registered.
func TestDocInventoryCoversRegistry(t *testing.T) {
	rows := seriesInventory(t)
	families := obs.Default.Families()
	if len(families) == 0 {
		t.Fatal("no metric families registered")
	}
	for _, f := range families {
		i := slices.IndexFunc(rows, func(r inventoryRow) bool { return r.documents(f.Name) })
		if i < 0 {
			t.Errorf("observability.md does not list %s (%s, labels %v)", f.Name, f.Kind, f.Labels)
			continue
		}
		if r := rows[i]; r.kind != f.Kind || !slices.Equal(r.labels, f.Labels) {
			t.Errorf("observability.md lists %s as %s with labels %v; registered as %s with labels %v",
				f.Name, r.kind, r.labels, f.Kind, f.Labels)
		}
	}
	for _, r := range rows {
		for i, n := range r.names {
			if i > 0 && !strings.HasPrefix(n, "ohm_") {
				continue // an abbreviated sibling
			}
			if !slices.ContainsFunc(families, func(f obs.Family) bool { return f.Name == n }) {
				t.Errorf("observability.md lists %s, which no package registers", n)
			}
		}
	}
}

package batch

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
)

// Row is one cell's identity plus its report: the unit of machine-readable
// sweep output shared by cmd/ohmbatch and the ohmserve daemon, so a saved
// file and a served response are interchangeable.
type Row struct {
	Index      int    `json:"index"`
	Platform   string `json:"platform"`
	Mode       string `json:"mode"`
	Workload   string `json:"workload"`
	Waveguides int    `json:"waveguides"`
	// Overrides are the dotted-path settings the cell's expansion applied
	// (empty for plain grid cells).
	Overrides map[string]interface{} `json:"overrides,omitempty"`
	// WorkloadDef is the inline definition of a spec-defined custom
	// workload (nil for Table II workloads).
	WorkloadDef *config.Workload `json:"workload_def,omitempty"`
	Report      stats.Report     `json:"report"`
}

// Rows pairs cells with their reports positionally.
func Rows(cells []Cell, reports []stats.Report) []Row {
	rows := make([]Row, len(cells))
	for i, c := range cells {
		rows[i] = Row{
			Index:       c.Index,
			Platform:    c.Config.Platform.String(),
			Mode:        config.ModeString(c.Config.Mode, c.Exec),
			Workload:    c.Workload,
			Waveguides:  c.Config.Optical.Waveguides,
			Overrides:   c.Overrides,
			WorkloadDef: c.WorkloadDef,
			Report:      reports[i],
		}
	}
	return rows
}

// WriteJSON emits the sweep results as an indented JSON row array.
func WriteJSON(w io.Writer, cells []Cell, reports []stats.Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Rows(cells, reports))
}

// csvHeader is the WriteCSV column set, exported through the header row.
var csvHeader = []string{
	"index", "platform", "mode", "workload", "waveguides",
	"elapsed_ps", "ipc", "mean_latency_ps", "p99_latency_ps",
	"copy_fraction", "instructions", "mem_requests", "migrations",
	"regular_bytes", "copy_bytes", "energy_pj", "overrides",
}

// overridesLabel renders a cell's override patch as a stable
// "path=value;path=value" string for the CSV overrides column.
func overridesLabel(o map[string]interface{}) string {
	if len(o) == 0 {
		return ""
	}
	paths := make([]string, 0, len(o))
	for p := range o {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var b strings.Builder
	for i, p := range paths {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s=%v", p, o[p])
	}
	return b.String()
}

// WriteCSV emits the sweep results as CSV with a fixed header.
func WriteCSV(w io.Writer, cells []Cell, reports []stats.Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for i, c := range cells {
		r := reports[i]
		rec := []string{
			strconv.Itoa(c.Index),
			c.Config.Platform.String(),
			config.ModeString(c.Config.Mode, c.Exec),
			c.Workload,
			strconv.Itoa(c.Config.Optical.Waveguides),
			strconv.FormatInt(int64(r.Elapsed), 10),
			strconv.FormatFloat(r.IPC, 'g', -1, 64),
			strconv.FormatInt(int64(r.MeanLatency), 10),
			strconv.FormatInt(int64(r.P99Latency), 10),
			strconv.FormatFloat(r.CopyFraction, 'g', -1, 64),
			strconv.FormatUint(r.Instructions, 10),
			strconv.FormatUint(r.MemRequests, 10),
			strconv.FormatUint(r.Migrations, 10),
			strconv.FormatUint(r.RegularBytes, 10),
			strconv.FormatUint(r.CopyBytes, 10),
			strconv.FormatFloat(r.TotalEnergyPJ(), 'g', -1, 64),
			overridesLabel(c.Overrides),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

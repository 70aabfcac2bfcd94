package config

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// The override layer makes every numeric/boolean knob of Config settable by
// a dotted path ("optical.waveguides", "xpoint.write_latency_ns",
// "gpu.mshr_entries", ...), so a platform variant can be described in a
// serializable spec document instead of Go code. The path table is derived
// from the Config struct by reflection at init, so a field added to any
// section becomes overridable without touching this file; names are the
// snake_case form of the Go field, with sim.Time fields suffixed "_ns"
// (their spec values are nanoseconds, fractional allowed).
//
// Platform and Mode are deliberately not overridable: they are the
// preset/mode identity of the scenario, set by Spec.Preset / Spec.Mode.

// OverridePath documents one settable field of Config.
type OverridePath struct {
	// Path is the dotted spec name, e.g. "dram.trcd_ns".
	Path string `json:"path"`
	// Type is the value's wire type: "int", "uint", "float", "bool", or
	// "duration_ns" (a number of nanoseconds, fractional allowed).
	Type string `json:"type"`
}

type ovKind int

const (
	ovInt ovKind = iota
	ovUint
	ovFloat
	ovBool
	ovTime
)

func (k ovKind) String() string {
	switch k {
	case ovInt:
		return "int"
	case ovUint:
		return "uint"
	case ovFloat:
		return "float"
	case ovBool:
		return "bool"
	default:
		return "duration_ns"
	}
}

type ovField struct {
	index []int // reflect field index chain into Config
	kind  ovKind
	typ   reflect.Type
}

// specNameOverrides fixes field names whose mechanical snake_case form is
// wrong or unreadable.
var specNameOverrides = map[string]string{
	"SMs":               "sms",
	"InterconnectL":     "interconnect_latency",
	"NoCDetailed":       "noc_detailed",
	"WaveguideLossDBcm": "waveguide_loss_db_cm",
	"XPointBytes":       "xpoint_bytes",
}

// sectionNames maps Config's struct sections to their spec prefixes.
var sectionNames = map[string]string{
	"GPU":        "gpu",
	"DRAM":       "dram",
	"XPoint":     "xpoint",
	"Optical":    "optical",
	"Electrical": "electrical",
	"Memory":     "memory",
}

var (
	timeType = reflect.TypeOf(sim.Time(0))
	ovTable  = buildOvTable()
)

func buildOvTable() map[string]ovField {
	table := make(map[string]ovField)
	cfg := reflect.TypeOf(Config{})
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		switch f.Name {
		case "Platform", "Mode":
			continue // scenario identity, not an override
		}
		if sec, ok := sectionNames[f.Name]; ok {
			for j := 0; j < f.Type.NumField(); j++ {
				leaf := f.Type.Field(j)
				k, ok := kindOf(leaf.Type)
				if !ok {
					continue
				}
				table[sec+"."+specName(leaf.Name, k)] = ovField{
					index: []int{i, j}, kind: k, typ: leaf.Type,
				}
			}
			continue
		}
		if k, ok := kindOf(f.Type); ok {
			table[specName(f.Name, k)] = ovField{index: []int{i}, kind: k, typ: f.Type}
		}
	}
	return table
}

func kindOf(t reflect.Type) (ovKind, bool) {
	if t == timeType {
		return ovTime, true
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int64:
		return ovInt, true
	case reflect.Uint64:
		return ovUint, true
	case reflect.Float64:
		return ovFloat, true
	case reflect.Bool:
		return ovBool, true
	}
	return 0, false
}

func specName(field string, k ovKind) string {
	name, ok := specNameOverrides[field]
	if !ok {
		name = snakeCase(field)
	}
	if k == ovTime && !strings.HasSuffix(name, "_ns") {
		name += "_ns"
	}
	return name
}

// snakeCase converts a Go field name to its spec form: "MSHREntries" ->
// "mshr_entries", "L1SizeBytes" -> "l1_size_bytes". Digits extend the
// current word; an uppercase run keeps together with its last letter
// starting a new word when followed by lowercase.
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				prev, next := rs[i-1], rune(0)
				if i+1 < len(rs) {
					next = rs[i+1]
				}
				prevLower := prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9'
				prevUpper := prev >= 'A' && prev <= 'Z'
				if prevLower || (prevUpper && next >= 'a' && next <= 'z') {
					b.WriteByte('_')
				}
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// OverridePaths lists every settable path with its wire type, sorted —
// the schema behind docs/reference/spec.md and the discovery endpoints.
func OverridePaths() []OverridePath {
	out := make([]OverridePath, 0, len(ovTable))
	for p, f := range ovTable {
		out = append(out, OverridePath{Path: p, Type: f.kind.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Set applies one override. The value may be a JSON-decoded scalar
// (float64, bool, string, int variants) or a string in CLI "-set
// path=value" form; strings are parsed per the field's type. Errors always
// name the offending path.
func (c *Config) Set(path string, value interface{}) error {
	key := strings.ToLower(strings.TrimSpace(path))
	f, ok := ovTable[key]
	if !ok {
		if hint := nearestPath(key); hint != "" {
			return fmt.Errorf("config: override %q: unknown path (did you mean %q?)", path, hint)
		}
		return fmt.Errorf("config: override %q: unknown path (see docs/reference/spec.md for the full list)", path)
	}
	field := reflect.ValueOf(c).Elem().FieldByIndex(f.index)
	switch f.kind {
	case ovBool:
		b, err := toBool(value)
		if err != nil {
			return fmt.Errorf("config: override %q: expected bool, %v", path, err)
		}
		field.SetBool(b)
	case ovInt:
		n, err := toInt(value)
		if err != nil {
			return fmt.Errorf("config: override %q: expected integer, %v", path, err)
		}
		field.SetInt(n)
	case ovUint:
		n, err := toInt(value)
		if err != nil || n < 0 {
			return fmt.Errorf("config: override %q: expected non-negative integer, got %v", path, value)
		}
		field.SetUint(uint64(n))
	case ovFloat:
		v, err := toFloat(value)
		if err != nil {
			return fmt.Errorf("config: override %q: expected number, %v", path, err)
		}
		field.SetFloat(v)
	case ovTime:
		v, err := toFloat(value)
		if err != nil {
			return fmt.Errorf("config: override %q: expected nanoseconds, %v", path, err)
		}
		// Every duration in the model is a physical latency or interval;
		// a negative one would silently skew timing arithmetic that
		// Config.Validate does not individually cover.
		if v < 0 {
			return fmt.Errorf("config: override %q: nanoseconds must be non-negative, got %v", path, v)
		}
		field.SetInt(int64(math.Round(v * float64(sim.Nanosecond))))
	}
	return nil
}

// ApplyOverrides applies a path->value patch in sorted path order (so the
// outcome never depends on map iteration), stopping at the first error.
// Two spellings that normalize to one path (Set is case-insensitive) are a
// conflict, not a silent last-writer-wins.
func (c *Config) ApplyOverrides(overrides map[string]interface{}) error {
	if len(overrides) == 0 {
		return nil
	}
	paths := make([]string, 0, len(overrides))
	seen := make(map[string]struct{}, len(overrides))
	for p := range overrides {
		key := strings.ToLower(strings.TrimSpace(p))
		if _, dup := seen[key]; dup {
			return fmt.Errorf("config: override path %q given twice (spellings are case-insensitive)", key)
		}
		seen[key] = struct{}{}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := c.Set(p, overrides[p]); err != nil {
			return err
		}
	}
	return nil
}

// nearestPath suggests a known path sharing the leaf name of an unknown one
// ("waveguides" -> "optical.waveguides").
func nearestPath(key string) string {
	leaf := key
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		leaf = key[i+1:]
	}
	if leaf == "" {
		return ""
	}
	var best string
	for p := range ovTable {
		if p == leaf || strings.HasSuffix(p, "."+leaf) {
			if best == "" || p < best {
				best = p
			}
		}
	}
	return best
}

func toBool(v interface{}) (bool, error) {
	switch x := v.(type) {
	case bool:
		return x, nil
	case string:
		b, err := strconv.ParseBool(strings.TrimSpace(x))
		if err != nil {
			return false, fmt.Errorf("got %q", x)
		}
		return b, nil
	}
	return false, fmt.Errorf("got %T(%v)", v, v)
}

// toFloat rejects NaN and the infinities, which strconv parses from
// "NaN" and "Inf": no knob means anything at them, and NaN passes every
// x <= 0 check to reach the event loop as a nonsense timestamp.
func toFloat(v interface{}) (float64, error) {
	var f float64
	switch x := v.(type) {
	case float64:
		f = x
	case float32:
		f = float64(x)
	case int:
		f = float64(x)
	case int64:
		f = float64(x)
	case uint64:
		f = float64(x)
	case string:
		p, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, fmt.Errorf("got %q", x)
		}
		f = p
	default:
		return 0, fmt.Errorf("got %T(%v)", v, v)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("got non-finite %v", f)
	}
	return f, nil
}

func toInt(v interface{}) (int64, error) {
	switch x := v.(type) {
	case int:
		return int64(x), nil
	case int64:
		return x, nil
	case uint64:
		return int64(x), nil
	case float64:
		if x != math.Trunc(x) {
			return 0, fmt.Errorf("got non-integral %v", x)
		}
		return int64(x), nil
	case string:
		n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("got %q", x)
		}
		return n, nil
	}
	return 0, fmt.Errorf("got %T(%v)", v, v)
}

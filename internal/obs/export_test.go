package obs

import "sort"

// Family is one registered metric family as the reference docs list it:
// its name, Prometheus kind and label keys.
type Family struct {
	Name, Kind string
	Labels     []string
}

// Families returns r's registered families in name order.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fs := make([]Family, 0, len(r.byName))
	for _, c := range r.byName {
		name, _, kind := c.describe()
		f := Family{Name: name, Kind: kind}
		switch v := c.(type) {
		case *CounterVec:
			f.Labels = v.keys
		case *HistogramVec:
			f.Labels = v.keys
		}
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	return fs
}

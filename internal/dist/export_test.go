package dist

// Waiters reports how many job waiters the dispatcher's tasks hold, read
// under its lock, so a test can wait until jobs have attached to tasks.
func (d *Dispatcher) Waiters() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, t := range d.tasks {
		n += len(t.waiters)
	}
	return n
}

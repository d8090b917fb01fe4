package jobs

// SetBeforeDurable installs a hook that runs as each Finish starts its
// durable writes (result store, journal), before the terminal state is
// published; nil removes it.
func SetBeforeDurable(f func(jobID string)) {
	if f == nil {
		beforeDurable.Store(nil)
		return
	}
	beforeDurable.Store(&f)
}

package service

// SetBeforeDurable installs a hook that runs as each finished job starts
// its durable writes (result store, journal), before its terminal state
// is published.
func SetBeforeDurable(s *Server, f func(jobID string)) { s.beforeDurable = f }

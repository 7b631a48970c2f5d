package des

// Test accessors of the engine's counters.

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.count }

// Pending returns how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return len(e.events) }

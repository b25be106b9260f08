package stream

// Connected reports whether the client holds a live connection: false
// from the moment a loss lands until a redial installs the next one.
func (cl *Client) Connected() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.conn != nil
}

// ScribbleAfterHandle makes every listener overwrite a frame's body as
// soon as its handler has returned, until the returned func is called:
// whatever a handler kept of Frame.Body without copying it turns to
// '#'. Not for tests that run in parallel.
func ScribbleAfterHandle() (restore func()) {
	afterHandle = func(f *Frame) {
		for i := range f.Body {
			f.Body[i] = '#'
		}
	}
	return func() { afterHandle = nil }
}

package stream

// Connected reports whether the client holds a live connection: false
// from the moment a loss lands until a redial installs the next one.
func (cl *Client) Connected() bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.conn != nil
}

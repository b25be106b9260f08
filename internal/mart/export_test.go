package mart

// NumLeaves returns the number of terminal nodes.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.nodes {
		if t.nodes[i].Feature < 0 {
			c++
		}
	}
	return c
}

package linalg

// Hooks for the external tests, which check the tree kernels on the
// forests of package lintest (an internal test cannot import it: lintest
// imports linalg).

// SlabBlock is the slab kernels' column block.
const SlabBlock = slabBlock

// RootSlab is rootSlab.
func (t *TreeSolver) RootSlab(dst, g []float64, w int, ws *CGWorkspace) {
	t.rootSlab(dst, g, w, ws)
}

// NodeBuf returns the capacity of the workspace's node-total buffer.
func (ws *CGWorkspace) NodeBuf() int { return cap(ws.r) }

package ned

// BaseBlock is the base block of a scan (NewScan) for the external
// tests: its rows and its rank and node lists.
func BaseBlock(ix ItemIndex) (rows Rows, ord, byNode []int32) {
	b := ix.(*scanBackend).bblk
	return b.Rows, b.ord, b.byNode
}

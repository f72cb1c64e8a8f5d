package ned

// BaseBlock is the base block of a scan (NewScan) for the external
// tests: its rows and its rank and node lists.
func BaseBlock(b *Scan) (rows Rows, ord, byNode []int32) {
	blk := b.bblk
	return blk.Rows, blk.ord, blk.byNode
}

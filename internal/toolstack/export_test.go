package toolstack

// The external tests reach the two halves of MigrateTo's handoff through
// these.
var (
	Adopt  = (*Toolstack).adopt
	Forget = (*Toolstack).forget
)

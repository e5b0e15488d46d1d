package toolstack

// The external tests reach the two halves of MigrateTo's handoff and the
// pause controls through these.
var (
	Adopt   = (*Toolstack).adopt
	Forget  = (*Toolstack).forget
	Pause   = (*Toolstack).pause
	Unpause = (*Toolstack).unpause
)

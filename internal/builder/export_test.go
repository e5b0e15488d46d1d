package builder

// Records reports how many build records b holds.
func Records(b *Builder) int { return len(b.records) }

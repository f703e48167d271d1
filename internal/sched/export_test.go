package sched

// FindHole exposes the Gap's hole search to the external fuzz test.
func FindHole(g *Gap, earliest, dur int64) (int64, int) { return g.findHole(earliest, dur) }

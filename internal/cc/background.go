package cc

// WaitBackground returns immediately: the package runs no background work.
// It is kept only because the repository benchmark (perfbench) still calls
// it; drop it with that caller.
func WaitBackground() {}

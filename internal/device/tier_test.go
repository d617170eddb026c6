package device

// allTiers lists every executor tier, the reference interpreter first. The
// in-package tests launch on a chosen tier through Device.launch.
var allTiers = []tier{tierInterp, tierLowered, tierFused}

func (t tier) String() string { return [...]string{"fused", "lowered", "interp"}[t] }

package sass

// ParseSeeds exposes the FuzzParse seed listings to the external tests.
var ParseSeeds = parseSeeds

package shard

// Spliced is spliced for the tests outside the package.
var Spliced = spliced

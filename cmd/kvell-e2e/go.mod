module kvell/cmd/kvell-e2e

go 1.22

require kvell v0.0.0

replace kvell => ../..

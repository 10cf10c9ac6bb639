module streamcalc/bench

go 1.22

require streamcalc v0.0.0

replace streamcalc => ../

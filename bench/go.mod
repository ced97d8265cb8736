module ishare/bench

go 1.22

require ishare v0.0.0

replace ishare => ../

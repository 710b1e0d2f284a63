module flodb/bench

go 1.24

require flodb v0.0.0

replace flodb => ../

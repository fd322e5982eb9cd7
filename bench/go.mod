module scisparql/bench

go 1.24

require scisparql v0.0.0

replace scisparql => ../

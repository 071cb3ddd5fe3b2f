module mdes/bench

go 1.22

require mdes v0.0.0

replace mdes => ../

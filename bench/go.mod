module myrtus/bench

go 1.24

require myrtus v0.0.0

replace myrtus => ../

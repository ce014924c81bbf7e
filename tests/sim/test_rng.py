"""Unit tests for named random streams."""

from repro.sim import RandomStream, SeedSequence


def test_same_seed_same_draws():
    a = RandomStream(99)
    b = RandomStream(99)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_uniform_range():
    stream = RandomStream(5)
    for _ in range(100):
        value = stream.uniform(-2.0, 3.0)
        assert -2.0 <= value <= 3.0


def test_randint_inclusive_bounds():
    stream = RandomStream(5)
    values = {stream.randint(0, 3) for _ in range(200)}
    assert values == {0, 1, 2, 3}


def test_permutation_is_bijection():
    stream = RandomStream(5)
    perm = stream.permutation(20)
    assert sorted(perm) == list(range(20))


def test_sample_without_replacement():
    stream = RandomStream(5)
    sample = stream.sample(range(10), 5)
    assert len(set(sample)) == 5
    assert all(0 <= value < 10 for value in sample)


def test_choice_from_sequence():
    stream = RandomStream(5)
    options = ["a", "b", "c"]
    assert all(stream.choice(options) in options for _ in range(20))


def test_expovariate_positive():
    stream = RandomStream(5)
    assert all(stream.expovariate(2.0) > 0 for _ in range(50))


def test_fork_is_deterministic_and_independent():
    parent_a = RandomStream(7, name="root")
    parent_b = RandomStream(7, name="root")
    child_a = parent_a.fork("traffic")
    child_b = parent_b.fork("traffic")
    assert [child_a.random() for _ in range(5)] == \
        [child_b.random() for _ in range(5)]
    # Forking does not perturb the parent.
    assert parent_a.random() == parent_b.random()


def test_fork_distinct_names_distinct_streams():
    parent = RandomStream(7)
    assert parent.fork("a").random() != parent.fork("b").random()


def test_seed_sequence_reuses_streams():
    seeds = SeedSequence(3)
    assert seeds.stream("x") is seeds.stream("x")
    assert seeds.stream("x") is not seeds.stream("y")


def test_seed_sequence_deterministic_across_instances():
    first = SeedSequence(3).stream("traffic").random()
    second = SeedSequence(3).stream("traffic").random()
    assert first == second


def test_shuffle_in_place():
    stream = RandomStream(11)
    items = list(range(30))
    stream.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))

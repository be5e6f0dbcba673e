import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiercurric import taxonomy
from hiercurric.errors import ParseError, ValidationError

LABELMAP_HEADER = "leaf_id,sub_index,basic_index,basic_id\n"


class TestParse:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\nroot>b\na>c\n")
        graph = taxonomy.parse_synset_file(path)
        assert graph.leaf_set == {"b", "c"}
        assert graph.roots == {"root"}
        assert graph.edges == (("root", "a"), ("root", "b"), ("a", "c"))

    def test_leaves_and_roots_are_computed_once(self):
        edges = [("r1", "a"), ("r2", "a"), ("a", "b"), ("a", "c"), ("r1", "d"),
                 ("d", "c")]
        graph = taxonomy.build_graph(edges)
        nodes = {n for edge in edges for n in edge}
        childless = nodes - {parent for parent, _ in edges}
        parentless = nodes - {child for _, child in edges}
        assert graph.leaf_set == childless == {"b", "c"}
        assert graph.roots == parentless == {"r1", "r2"}
        assert graph.leaf_set is graph.leaf_set
        assert graph.roots is graph.roots

    def test_two_node_cycle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a>b\nb>a\n")
        with pytest.raises(ValidationError, match="cycle"):
            taxonomy.parse_synset_file(path)

    def test_cycle_error_names_a_node_on_the_cycle(self):
        """Ancestors of a cycle and its leaves are left out of the message."""
        edges = [("r", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "leaf"),
                 ("r", "x")]
        with pytest.raises(ValidationError,
                           match=r"cycle detected through node '[abc]'$"):
            taxonomy.build_graph(edges)

    def test_random_cycles_name_a_node_on_them(self):
        rng = random.Random(29)
        for _ in range(300):
            edges, _ = _random_dag(rng)
            graph = taxonomy.build_graph(edges)
            top = rng.choice(sorted(graph.nodes - graph.leaf_set))
            below = sorted(_descendants(graph, top))
            edges.insert(rng.randrange(len(edges) + 1), (rng.choice(below), top))
            with pytest.raises(ValidationError) as exc:
                taxonomy.build_graph(edges)
            named = str(exc.value).split("node ")[1].strip("'")
            cyclic = taxonomy.SynsetGraph(frozenset(), (), _children={
                p: [c for q, c in edges if q == p] for p, _ in edges})
            assert named in _descendants(cyclic, named), edges

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\nnonsense\n")
        with pytest.raises(ParseError, match="line 2"):
            taxonomy.parse_synset_file(path)

    def test_duplicate_edge(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\nroot>a\n")
        with pytest.raises(ValidationError, match="duplicate"):
            taxonomy.parse_synset_file(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\nroot>a\n")
        graph = taxonomy.parse_synset_file(path)
        assert set(graph.nodes) == {"root", "a"}


class TestValidateMarks:
    def test_full_coverage_accepted(self, animal_graph):
        marked = taxonomy.validate_basic_marks(animal_graph, {"dog", "fish", "car"})
        assert marked.basic_marks == {"dog", "fish", "car"}

    def test_uncovered_leaf_listed(self, animal_graph):
        with pytest.raises(ValidationError, match="fish"):
            taxonomy.validate_basic_marks(animal_graph, {"dog", "car"})

    def test_nested_marks_rejected(self, animal_graph):
        with pytest.raises(ValidationError, match="ancestor"):
            taxonomy.validate_basic_marks(animal_graph, {"dog", "animal", "fish", "car"})

    def test_unknown_mark_rejected(self, animal_graph):
        with pytest.raises(ValidationError, match="unicorn"):
            taxonomy.validate_basic_marks(animal_graph, {"dog", "unicorn"})

    def test_empty_marks_rejected(self, animal_graph):
        with pytest.raises(ValidationError):
            taxonomy.validate_basic_marks(animal_graph, set())


class TestAllocate:
    def test_animal_fixture(self, animal_marked):
        # Hand-traced upward BFS on the fixture graph.
        labelmap = taxonomy.allocate_descendants(animal_marked)
        assigned = {leaf: labelmap.basic_names[bi]
                    for leaf, (_, bi) in labelmap.entries.items()}
        assert assigned == {"poodle": "dog", "beagle": "dog",
                            "suv": "car", "fish": "fish"}

    def test_multi_parent_takes_first_listed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>car\nroot>van\ncar>minivan\nvan>minivan\nroot>x\n")
        graph = taxonomy.parse_synset_file(path)
        # x keeps van and car non-empty irrelevant; both parents marked.
        graph = taxonomy.validate_basic_marks(graph, {"car", "van", "x"})
        labelmap = taxonomy.allocate_descendants(graph)
        _, bi = labelmap.entries["minivan"]
        assert labelmap.basic_names[bi] == "car"

    def test_edge_order_flips_only_that_leaf(self, tmp_path):
        def build(edge_block):
            path = tmp_path / "g.txt"
            path.write_text(edge_block + "root>x\n")
            graph = taxonomy.parse_synset_file(path)
            graph = taxonomy.validate_basic_marks(graph, {"car", "van", "x"})
            labelmap = taxonomy.allocate_descendants(graph)
            return {leaf: labelmap.basic_names[bi]
                    for leaf, (_, bi) in labelmap.entries.items()}

        car_first = build("root>car\nroot>van\ncar>minivan\nvan>minivan\n")
        van_first = build("root>van\nroot>car\nvan>minivan\ncar>minivan\n")
        assert car_first["minivan"] == "car"
        assert van_first["minivan"] == "van"
        del car_first["minivan"], van_first["minivan"]
        assert car_first == van_first  # every other leaf is untouched

    def test_chain_assigns_to_root(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\na>b\n")
        graph = taxonomy.parse_synset_file(path)
        graph = taxonomy.validate_basic_marks(graph, {"root"})
        labelmap = taxonomy.allocate_descendants(graph)
        assert labelmap.entries == {"b": (0, 0)}
        assert labelmap.basic_names == ("root",)

    def test_indices_are_dense_and_sorted(self, animal_marked):
        labelmap = taxonomy.allocate_descendants(animal_marked)
        assert labelmap.sub_names == tuple(sorted(animal_marked.leaf_set))
        assert sorted(s for s, _ in labelmap.entries.values()) == [0, 1, 2, 3]
        assert set(b for _, b in labelmap.entries.values()) == {0, 1, 2}
        for leaf, (_, bi) in labelmap.entries.items():
            basic = labelmap.basic_names[bi]
            assert basic == leaf or basic in _ancestor_closure(animal_marked, leaf)

    def test_indices_follow_leaf_order(self, animal_marked):
        labelmap = taxonomy.allocate_descendants(animal_marked)
        leaves = ["suv", "beagle", "suv"]
        assert labelmap.indices(leaves, "sub") == [
            labelmap.entries[l][0] for l in leaves]
        assert labelmap.indices(leaves, "basic") == [
            labelmap.basic_index(l) for l in leaves]

    def test_indices_reject_unknown_leaf(self, animal_marked):
        labelmap = taxonomy.allocate_descendants(animal_marked)
        with pytest.raises(ValidationError,
                           match="manifest leaf 'cat' not in label map"):
            labelmap.indices(["beagle", "cat"], "sub")

    def test_determinism_byte_identical_csv(self, animal_file, tmp_path):
        outs = []
        for i in range(2):
            graph = taxonomy.parse_synset_file(animal_file)
            graph = taxonomy.validate_basic_marks(graph, {"dog", "fish", "car"})
            labelmap = taxonomy.allocate_descendants(graph)
            out = tmp_path / f"lm{i}.csv"
            taxonomy.labelmap_to_csv(labelmap, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_round_trip(self, animal_marked, tmp_path):
        labelmap = taxonomy.allocate_descendants(animal_marked)
        path = tmp_path / "lm.csv"
        taxonomy.labelmap_to_csv(labelmap, path)
        back = taxonomy.labelmap_from_csv(path)
        assert back == labelmap

    @pytest.mark.parametrize("text,match", [
        (LABELMAP_HEADER + "poodle,0,0,dog\nbeagle,0,0,dog\nsuv,7,1,car\n",
         "permutation of 0..2"),
        (LABELMAP_HEADER + "poodle,0,0,dog\nbeagle,one,0,dog\n", "line 3: .*integers"),
        (LABELMAP_HEADER + "poodle,0,0,dog\npoodle,1,0,dog\n", "twice"),
        (LABELMAP_HEADER + "poodle,0,0\n", "expected 4 fields"),
        ("leaf_id,sub_index,basic_id\npoodle,0,dog\n", "missing column.*basic_index"),
    ])
    def test_corrupt_csv_rejected(self, tmp_path, text, match):
        path = tmp_path / "lm.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=match):
            taxonomy.labelmap_from_csv(path)


class TestHeights:
    def test_animal_fixture_histogram(self, animal_marked):
        # Exhaustive downward path enumeration oracle on the fixture.
        def longest(node):
            kids = animal_marked.children_of(node)
            if not kids:
                return 0
            return 1 + max(longest(k) for k in kids)

        expected = {}
        for mark in animal_marked.basic_marks:
            expected[longest(mark)] = expected.get(longest(mark), 0) + 1
        hist = taxonomy.category_height_histogram(animal_marked)
        assert hist == expected == {0: 1, 1: 2}

    def test_all_leaf_marks_height_zero(self, animal_graph):
        graph = taxonomy.validate_basic_marks(
            animal_graph, {"poodle", "beagle", "fish", "suv"})
        assert taxonomy.category_height_histogram(graph) == {0: 4}

    def test_chain_height_two(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\na>leaf\n")
        graph = taxonomy.parse_synset_file(path)
        graph = taxonomy.validate_basic_marks(graph, {"root"})
        assert taxonomy.category_height_histogram(graph) == {2: 1}

    def test_shortest_mode_differs_on_uneven_tree(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("root>a\nroot>leaf1\na>leaf2\n")
        graph = taxonomy.parse_synset_file(path)
        graph = taxonomy.validate_basic_marks(graph, {"root"})
        assert taxonomy.category_height_histogram(graph, mode="longest") == {2: 1}
        assert taxonomy.category_height_histogram(graph, mode="shortest") == {1: 1}

    def test_unknown_mode_rejected(self, animal_marked):
        with pytest.raises(ValidationError):
            taxonomy.category_height_histogram(animal_marked, mode="median")

    def test_unmarked_graph_rejected(self, animal_graph):
        with pytest.raises(ValidationError, match="marks"):
            taxonomy.category_height_histogram(animal_graph)


def _ancestor_closure(graph, node):
    seen = set()
    stack = [node]
    while stack:
        for parent in graph.parents_of(stack.pop()):
            if parent not in seen:
                seen.add(parent)
                stack.append(parent)
    return seen


@st.composite
def layered_dags(draw):
    """Random root -> mids -> leaves DAGs; mids are a mark antichain."""
    n_mid = draw(st.integers(min_value=1, max_value=5))
    n_leaf = draw(st.integers(min_value=1, max_value=8))
    mids = [f"m{i}" for i in range(n_mid)]
    edges = [("root", m) for m in mids]
    for j in range(n_leaf):
        parents = draw(st.lists(st.sampled_from(mids), min_size=1,
                                max_size=n_mid, unique=True))
        edges.extend((p, f"leaf{j}") for p in parents)
    return edges, set(mids)


class TestProperties:
    @given(layered_dags())
    @settings(max_examples=60, deadline=None)
    def test_assigned_basic_is_reachable_upward(self, dag):
        edges, marks = dag
        graph = taxonomy.build_graph(edges)
        graph = taxonomy.validate_basic_marks(graph, marks)
        labelmap = taxonomy.allocate_descendants(graph)
        assert set(labelmap.entries) == set(graph.leaf_set)
        for leaf, (_, bi) in labelmap.entries.items():
            basic = labelmap.basic_names[bi]
            assert basic == leaf or basic in _ancestor_closure(graph, leaf)

    @given(layered_dags())
    @settings(max_examples=30, deadline=None)
    def test_every_basic_index_hit(self, dag):
        edges, marks = dag
        graph = taxonomy.validate_basic_marks(taxonomy.build_graph(edges), marks)
        labelmap = taxonomy.allocate_descendants(graph)
        hit = {bi for _, bi in labelmap.entries.values()}
        assert hit == set(range(len(labelmap.basic_names)))


def _bfs_first_mark(graph, node, marks):
    """Reference rule: the first marked node an upward breadth-first search
    from ``node`` meets, expanding parents in edge order."""
    queue, visited = deque([node]), {node}
    while queue:
        cur = queue.popleft()
        if cur in marks:
            return cur
        for parent in graph.parents_of(cur):
            if parent not in visited:
                visited.add(parent)
                queue.append(parent)
    return None


def _random_dag(rng):
    """2-40 nodes, each after the first with 1-3 earlier parents; names,
    edge order and marks shuffled so none follows the topological order."""
    n = rng.randint(2, 40)
    names = [f"n{i:02d}" for i in range(n)]
    rng.shuffle(names)
    edges = [(names[p], names[c]) for c in range(1, n)
             for p in rng.sample(range(c), min(c, rng.randint(1, 3)))]
    rng.shuffle(edges)
    return edges, {m for m in names if rng.random() < 0.3}


def _descendants(graph, node):
    """Nodes reachable from ``node`` by one or more child steps."""
    seen, todo = set(), deque(graph.children_of(node))
    while todo:
        child = todo.popleft()
        if child not in seen:
            seen.add(child)
            todo.extend(graph.children_of(child))
    return seen


class TestOnePassMatchesBfs:
    def test_random_dags(self):
        rng = random.Random(19)
        for _ in range(500):
            edges, marks = _random_dag(rng)
            graph = taxonomy.build_graph(edges)
            got = taxonomy.first_marks(graph, marks, graph.nodes)
            assert got == {n: _bfs_first_mark(graph, n, marks)
                           for n in graph.nodes}, edges
            for node in graph.nodes:
                assert taxonomy.first_marked_ancestor(graph, node, marks) == got[node]

    def test_random_nested_marks_name_the_bfs_hit(self):
        rng = random.Random(23)
        named = 0
        for _ in range(500):
            edges, marks = _random_dag(rng)
            graph = taxonomy.build_graph(edges)
            nested = sorted(m for m in marks if _bfs_first_mark(
                graph, m, marks - {m}) is not None)
            if not marks or not nested:
                continue
            inner = nested[0]
            outer = _bfs_first_mark(graph, inner, marks - {inner})
            with pytest.raises(ValidationError) as exc:
                taxonomy.validate_basic_marks(graph, marks)
            assert str(exc.value) == (
                f"nested basic marks: {outer!r} is an ancestor of {inner!r}")
            named += 1
        assert named > 100

"""The permutation action by its definition, for differential tests.

A permutation p relabels atom i as atom p[i] and acts on a set element
by element.  `relabel` spells that out, one object at a time, with no
use of transpositions or of the universe's image maps; it is the
definition `Universe.apply_perm`, `Universe.swap` and `bulk_images`
must agree with.
"""


def relabel(u, p, objects) -> dict:
    """The image under p of each given object, by handle.

    Recurses once per rank level, so it suits the shallow objects of
    the differential tests.
    """
    images: dict = {}

    def image(x):
        if x not in images:
            if u.is_atom(x):
                images[x] = u.atom(p[u.atom_index(x)])
            else:
                images[x] = u.mk_set([image(c) for c in u.elements(x)])
        return images[x]

    return {x: image(x) for x in objects}

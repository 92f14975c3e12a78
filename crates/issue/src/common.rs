//! The out-of-order window's tag machinery: register-instance tags,
//! reservation-station operands, and per-cycle broadcast records.

use ruu_isa::Reg;

/// A register-instance tag: names one in-flight producer of a register.
///
/// In the RUU the tag is the register number appended with the LI counter
/// (paper §5.1: an 11-bit tag = 8-bit register number + 3-bit instance).
/// The associative mechanisms (Tomasulo/RSTU) use a unique producer id,
/// modelled as the unbounded LI count, which no two in-flight instances
/// of a register share (equality is what matters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tag {
    /// The destination register.
    pub reg: Reg,
    /// Instance discriminator: the LI counter value, masked to the
    /// counter width in the RUU.
    pub instance: u64,
}

/// A reservation-station source-operand field (paper §3.1: ready bit, tag
/// sub-field, content sub-field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// The operand value is available.
    Ready(u64),
    /// Waiting for `Tag` to appear on a monitored bus.
    Waiting(Tag),
}

impl Operand {
    /// `true` once the value is available.
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(self, Operand::Ready(_))
    }

    /// The value.
    ///
    /// # Panics
    /// Panics if the operand is still waiting.
    #[must_use]
    pub fn value(&self) -> u64 {
        match self {
            Operand::Ready(v) => *v,
            Operand::Waiting(t) => panic!("operand still waiting on {t:?}"),
        }
    }

    /// Gates in a broadcast: if waiting on `tag`, becomes ready with
    /// `value`. Returns `true` if the operand matched.
    pub fn gate(&mut self, tag: Tag, value: u64) -> bool {
        if let Operand::Waiting(t) = self {
            if *t == tag {
                *self = Operand::Ready(value);
                return true;
            }
        }
        false
    }
}

/// The (tag, value) pairs broadcast during the current cycle, across all
/// monitored buses (result bus and, for the RUU, the RUU→register-file
/// bus). Waiting stations and a waiting branch consult this.
#[derive(Debug, Clone, Default)]
pub struct Broadcasts {
    items: Vec<(Tag, u64)>,
}

impl Broadcasts {
    /// Clears the record at the start of a cycle.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// Records a broadcast.
    pub fn push(&mut self, tag: Tag, value: u64) {
        self.items.push((tag, value));
    }

    /// The value broadcast for `tag` this cycle, if any.
    #[must_use]
    pub fn lookup(&self, tag: Tag) -> Option<u64> {
        self.items.iter().find(|(t, _)| *t == tag).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_gating() {
        let t = Tag {
            reg: Reg::s(1),
            instance: 3,
        };
        let mut op = Operand::Waiting(t);
        assert!(!op.is_ready());
        assert!(!op.gate(
            Tag {
                reg: Reg::s(1),
                instance: 4
            },
            9
        ));
        assert!(op.gate(t, 9));
        assert_eq!(op.value(), 9);
        // Ready operands ignore further broadcasts.
        assert!(!op.gate(t, 10));
        assert_eq!(op.value(), 9);
    }

    #[test]
    fn broadcasts_lookup() {
        let mut b = Broadcasts::default();
        let t = Tag {
            reg: Reg::a(2),
            instance: 1,
        };
        assert_eq!(b.lookup(t), None);
        b.push(t, 5);
        assert_eq!(b.lookup(t), Some(5));
        b.clear();
        assert_eq!(b.lookup(t), None);
    }
}
